package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint says where and on what a number was measured; it goes into
// every output.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Seed:       seed,
		Commit:     commit(),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q seed=%d commit=%s",
		f.NProc, f.GOMAXPROCS, f.GoVersion, f.CPUModel, f.Seed, f.Commit)
}

// commit asks git; a checkout that is not a repository has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	v := strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	return kb / 1024, nil
}

var calibSink float64

// calibMS times a fixed serial floating-point loop: a dependent
// multiply-add chain that no cache, allocator or scheduler decision can
// speed up, so a change in it is a change in the host, not in the program.
func calibMS() float64 {
	t0 := now()
	x := 1.0
	for i := 0; i < 150_000_000; i++ {
		x = x*0.999999 + 1e-6
	}
	calibSink = x
	return float64(now()-t0) / 1e6
}

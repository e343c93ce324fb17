package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// contractFile is the part of BENCHMARK.json the self-check reads.
type contractFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readContract(path string) (contractFile, error) {
	var c contractFile
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// pyQuartiles returns the quartiles as Python's statistics.quantiles(xs,
// n=4) does (the exclusive method), which is what the driver judges the
// benchmark's spread with.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runChild runs this binary once on one workload, as the driver would, and
// returns the end-to-end metrics it printed on its last line.
func runChild(workload string, seed int64, seconds float64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte("FAILED")) || bytes.HasPrefix(l, []byte("WARNING")) {
			fmt.Printf("%s seed %d: %s\n", workload, seed, l)
		}
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return res, nil
}

// selfCheck is the A/A evidence: n interleaved pairs of passes of this
// same binary (A1 B1 A2 B2 ...), pass i of either side on seed+i. For every
// (metric, workload) it prints both medians and quartiles, the spread the
// driver computes (interquartile range over median), and how much worse
// B's median is than A's, against the bound in BENCHMARK.json. It reports
// false when identical code disagrees with itself by more than a bound.
// Failed jobs are counted and shown with their reasons; they are findings
// about the stack, not about the benchmark's steadiness.
func selfCheck(n int, seed int64, seconds float64, contractPath string) (bool, error) {
	c, err := readContract(contractPath)
	if err != nil {
		return false, err
	}
	type key struct{ metric, workload string }
	sides := [2]map[key][]float64{{}, {}}
	failedJobs := 0
	for i := 0; i < n; i++ {
		for side := 0; side < 2; side++ {
			for _, w := range workloads {
				res, err := runChild(w.Name, seed+int64(i), seconds)
				if err != nil {
					return false, err
				}
				failedJobs += res.Failed
				for name, v := range res.Metrics {
					k := key{name, w.Name}
					sides[side][k] = append(sides[side][k], v.Value)
				}
				fmt.Printf("pass %c%d %-15s attempted %d failed %d\n", 'A'+side, i+1, w.Name, res.Attempted, res.Failed)
			}
		}
	}
	fmt.Printf("\n%-15s %-15s %12s %25s %12s %25s %8s %8s %6s\n",
		"metric", "workload", "median A", "quartiles A", "median B", "quartiles B", "spread", "B worse", "bound")
	ok := true
	for _, m := range c.EndToEnd {
		for _, w := range workloads {
			a, b := sides[0][key{m.Name, w.Name}], sides[1][key{m.Name, w.Name}]
			a1, a2, a3 := pyQuartiles(a)
			b1, b2, b3 := pyQuartiles(b)
			worse := b2/a2 - 1
			if m.Better == "higher" {
				worse = 1 - b2/a2
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := ""
			// The driver does not hold setup_s to the spread rule.
			if worse > m.Bound || (spread > m.Bound && m.Name != "setup_s") {
				verdict, ok = "  OUTSIDE", false
			}
			fmt.Printf("%-15s %-15s %12.4f %12.4f-%-12.4f %12.4f %12.4f-%-12.4f %7.1f%% %7.1f%% %5.0f%%%s\n",
				m.Name, w.Name, a2, a1, a3, b2, b1, b3, 100*spread, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("\nfailed jobs: %d (their reasons are printed above, beside the pass they occurred in)\n", failedJobs)
	return ok, nil
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
)

// modes maps -mode to a function that registers the mode's flags and
// returns its run step. "run" is the default: one Lanczos job (main.go).
// The others regenerate the paper's artifacts and the repo's studies from
// internal/experiment and print the result table.
var modes = map[string]func(fs *flag.FlagSet) func() error{
	"run":        runMode,
	"fig4":       fig4Mode,
	"table1":     table1Mode,
	"ablation":   ablationMode,
	"cpsweep":    cpSweepMode,
	"asyncsweep": asyncSweepMode,
	"scenarios":  scenariosMode,
	"scale":      scaleMode,
}

const modeNames = "run | fig4 | table1 | ablation | cpsweep | asyncsweep | scenarios | scale"

// modeOf finds -mode in the arguments ahead of flag parsing: each mode
// owns its flag set (the same flag name carries different defaults in
// different modes), so the mode has to be known before the rest is parsed.
func modeOf(args []string) string {
	for i, a := range args {
		name, ok := strings.CutPrefix(a, "-")
		if !ok {
			continue
		}
		name = strings.TrimPrefix(name, "-")
		if v, ok := strings.CutPrefix(name, "mode="); ok {
			return v
		}
		if name == "mode" && i+1 < len(args) {
			return args[i+1]
		}
	}
	return "run"
}

// int64List parses a comma-separated list flag; a malformed entry or one
// below min is a usage error (exit 2).
func int64List(flagName, s string, min int64) []int64 {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err == nil && v < min {
			err = fmt.Errorf("%d is below %d", v, min)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -%s: %v\n", flagName, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// studyFlags registers the flags of the job size every study shares, with
// def's values as defaults; -spares only where the study has spares.
func studyFlags(fs *flag.FlagSet, s *experiment.StudyConfig, def experiment.StudyConfig) {
	fs.IntVar(&s.Workers, "workers", def.Workers, "worker processes (paper: 256)")
	if def.Spares > 0 {
		fs.IntVar(&s.Spares, "spares", def.Spares, "idle spare processes, the FD is extra (paper: 4)")
	}
	fs.IntVar(&s.Iters, "iters", def.Iters, "Lanczos iterations (paper: 3500)")
	fs.IntVar(&s.Nx, "nx", def.Nx, "graphene cells in x")
	fs.IntVar(&s.Ny, "ny", def.Ny, "graphene cells in y")
	fs.Float64Var(&s.TimeScale, "timescale", def.TimeScale, "time compression factor")
	fs.Int64Var(&s.Seed, "seed", def.Seed, "seed for disorder and jitter")
}

// render prints a finished experiment's table.
func render[R interface{ Render() string }](res R, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

// fig4Mode regenerates Figure 4 of the paper: the runtime of the
// fault-tolerant Lanczos application under seven scenarios — both baselines
// (without health check, with/without checkpointing), the full
// fault-tolerant configuration, and 1/2/3 sequential plus 3 simultaneous
// failure recoveries — decomposed into computation, redo-work,
// re-initialization and fault-detection time. The defaults are a
// scaled-down configuration; pass -workers 256 -iters 3500 -cp-every 500
// for the paper-scale run (slow but exact in shape).
func fig4Mode(fs *flag.FlagSet) func() error {
	var cfg experiment.Fig4Config
	def := cfg.WithDefaults()
	studyFlags(fs, &cfg.StudyConfig, def.StudyConfig)
	fs.Int64Var(&cfg.CheckpointEvery, "cp-every", def.CheckpointEvery, "checkpoint interval (paper: 500)")
	fs.IntVar(&cfg.Threads, "fd-threads", def.Threads, "FD scan threads (paper: 8)")
	return func() error { return render(experiment.RunFig4(cfg)) }
}

// table1Mode regenerates Table I of the paper: the fault detector's average
// ping-scan time and the failure detection + acknowledgment time (mean ±
// stddev over repeated runs with one random kill -9 at a random instant),
// as a function of the node count.
func table1Mode(fs *flag.FlagSet) func() error {
	var cfg experiment.Table1Config
	nodes := fs.String("nodes", "8,16,32,64,128,256", "comma-separated node counts")
	fs.IntVar(&cfg.Runs, "runs", 10, "repetitions per node count (paper: 10)")
	fs.IntVar(&cfg.CleanScans, "clean-scans", 5, "failure-free scans averaged for the scan column")
	fs.Float64Var(&cfg.TimeScale, "timescale", experiment.DefaultTimeScale, "time compression factor")
	fs.IntVar(&cfg.Threads, "fd-threads", 1, "FD scan threads (Table I uses a serial scan)")
	fs.Int64Var(&cfg.Seed, "seed", 7, "seed")
	return func() error {
		for _, n := range int64List("nodes", *nodes, 0) {
			cfg.NodeCounts = append(cfg.NodeCounts, int(n))
		}
		return render(experiment.RunTable1(cfg))
	}
}

// ablationMode quantifies the design choices discussed in Section IV.A.b of
// the paper: the dedicated fault-detector process with one-sided pings (the
// paper's choice) versus the rejected alternatives — all-to-all ping and
// neighbor-ring ping — in failure-free overhead and fabric load, plus the
// serial-versus-threaded FD scan on three simultaneous failures (the
// threaded scan detects them for the cost of one).
func ablationMode(fs *flag.FlagSet) func() error {
	var cfg experiment.AblationConfig
	studyFlags(fs, &cfg.StudyConfig, cfg.WithDefaults().StudyConfig)
	return func() error { return render(experiment.RunAblation(cfg)) }
}

// cpSweepMode runs the checkpoint study motivated by the paper's
// discussion: (1) the §IV.E strategy comparison — the paper's neighbor
// node-level checkpointing versus the classic global PFS-level checkpoint
// it replaces — and (2) the checkpoint-interval sweep behind the §VI remark
// that the cheap checkpoints allow a higher frequency and thereby less
// redo-work, compared against the Young/Daly optimum.
func cpSweepMode(fs *flag.FlagSet) func() error {
	var cfg experiment.CPSweepConfig
	intervals := fs.String("intervals", "10,20,40,80,160", "checkpoint intervals to sweep")
	studyFlags(fs, &cfg.StudyConfig, cfg.WithDefaults().StudyConfig)
	return func() error {
		cfg.Intervals = int64List("intervals", *intervals, 0)
		return render(experiment.RunCPSweep(cfg))
	}
}

// asyncSweepMode runs the sync-versus-async checkpoint study: the source
// paper's library already overlaps the neighbor copy with computation but
// still pays the node-local commit inside every Write; the follow-up work
// (Bazaga 2018, mixed MPI/GPI-2) shows that a fully asynchronous,
// double-buffered commit hides nearly all of that cost. The sweep crosses
// the checkpoint period with the commit discipline and adds one faulted run
// per discipline to confirm recovery still works.
func asyncSweepMode(fs *flag.FlagSet) func() error {
	var cfg experiment.AsyncSweepConfig
	periods := fs.String("periods", "5,10,20,40", "checkpoint periods to sweep")
	studyFlags(fs, &cfg.StudyConfig, cfg.WithDefaults().StudyConfig)
	fs.Int64Var(&cfg.FaultPeriod, "faultperiod", 0, "period for the faulted runs (0 = middle of -periods)")
	fs.DurationVar(&cfg.LocalWriteCost, "localcost", 10*time.Millisecond, "model-time node-local commit latency")
	return func() error {
		cfg.Periods = int64List("periods", *periods, 1)
		return render(experiment.RunAsyncSweep(cfg))
	}
}

// scenariosMode runs the full fault-scenario matrix: every failure mode the
// paper validates (process exit, kill -9, network loss, whole-node death)
// plus the compound cases the recovery epoch state machine handles — a
// second failure during a recovery epoch, a failure racing the
// asynchronous checkpoint flusher, and the loss of a node together with
// the node holding its checkpoint replicas (PFS fallback). Each scenario is
// classified as recovered / unrecoverable / wrong-answer / hung and checked
// against its specification; any deviation exits non-zero.
func scenariosMode(fs *flag.FlagSet) func() error {
	var cfg experiment.ScenarioMatrixConfig
	fs.IntVar(&cfg.Workers, "workers", 4, "worker processes")
	fs.IntVar(&cfg.Iters, "iters", 60, "Lanczos iterations")
	fs.Int64Var(&cfg.CheckpointEvery, "cp-every", 10, "checkpoint interval")
	fs.IntVar(&cfg.Nx, "nx", 16, "graphene cells in x")
	fs.IntVar(&cfg.Ny, "ny", 8, "graphene cells in y")
	fs.DurationVar(&cfg.StepDelay, "step-delay", 2*time.Millisecond, "compute time per iteration")
	fs.DurationVar(&cfg.Timeout, "timeout", 90*time.Second, "per-scenario hang deadline")
	fs.Int64Var(&cfg.Seed, "seed", 7, "seed for disorder and jitter")
	return func() error {
		res, err := experiment.RunScenarioMatrix(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if bad := res.Mismatches(); len(bad) > 0 {
			for _, row := range bad {
				fmt.Fprintf(os.Stderr, "  %s: outcome %v (want %v) %s\n",
					row.Spec.Scenario.Name, row.Outcome, row.Spec.Expect, row.Detail)
			}
			return fmt.Errorf("%d scenario(s) deviated from their specification", len(bad))
		}
		fmt.Println("all scenarios matched their specification")
		return nil
	}
}

// scaleMode measures the scaling trajectory of the sharded fabric data
// plane and writes BENCH_scale.json: a ranks × GOMAXPROCS × message-size
// sweep in which every point runs twice — the sharded layout (Shards =
// min(GOMAXPROCS, ranks)) against the historical one-pump-per-rank layout
// (Shards = ranks) — so the effect of collapsing N delivery spinners into a
// few doorbell-driven shards is measured, not assumed. Per (ranks, cores)
// point: spMVM weak scaling (iterations/sec of the distributed y = A·x loop
// over a Laplacian1D matrix; -full reaches 1024 ranks and a 2M-row matrix),
// allreduce ops/sec on the registered-segment fast path, and pairwise
// one-sided streaming MB/s per message size. The cores axis re-pins
// GOMAXPROCS; it only buys real parallelism on a host with that many CPUs,
// so the JSON records num_cpu (see EXPERIMENTS.md for how to read a sweep
// from a small host).
func scaleMode(fs *flag.FlagSet) func() error {
	var cfg experiment.ScaleConfig
	fs.BoolVar(&cfg.Full, "full", false, "widen the sweep to 1024 ranks / multi-million-row matrices")
	fs.IntVar(&cfg.SpMVIters, "spmviters", 0, "spMVM iteration budget at the smallest rank count (0: default)")
	fs.IntVar(&cfg.CollOps, "collops", 0, "allreduce operations per point (0: default)")
	fs.IntVar(&cfg.StreamMsgs, "streammsgs", 0, "streaming messages per pair (0: default)")
	out := fs.String("out", "BENCH_scale.json", "output file")
	return func() error {
		res, err := experiment.RunScale(cfg, func(msg string) { fmt.Println(msg) })
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		blob, err := json.MarshalIndent(struct {
			Benchmark string                  `json:"benchmark"`
			GOOS      string                  `json:"goos"`
			GOARCH    string                  `json:"goarch"`
			NumCPU    int                     `json:"num_cpu"`
			Result    *experiment.ScaleResult `json:"scale"`
		}{"scale", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), res}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
		return nil
	}
}

// Command benchmark is the repository's one repeatable benchmark: five
// workloads over the whole stack (core.Launch over cluster, ft, gaspi and
// fabric, running the Lanczos application on spmvm, lanczos and
// checkpoint), measured from outside. See README.md in this directory for
// every metric's definition and for how the workloads were chosen.
//
// One process runs one workload once:
//
//	bash benchmark/run.sh --workload steady_comm --seed 7 --seconds 18 --trace 0
//
// and prints a report followed, as the last line of standard output, by
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// outDir is where the traced pass writes its spans.
var outDir = "benchmark/out"

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 7, "seed of the matrix disorder, the start vector and the fabric jitter")
		seconds   = flag.Float64("seconds", 18, "how long to measure (BENCHMARK.json: run_seconds)")
		traceFlag = flag.Int("trace", 0, "1: the traced pass (per-layer metrics); 0: the end-to-end metrics")
		list      = flag.Bool("list", false, "list the workloads and exit")
		selfcheck = flag.Int("selfcheck", 0, "run N interleaved pairs of passes over every workload and compare them (A/A)")
		contract  = flag.String("contract", "BENCHMARK.json", "the benchmark contract; -selfcheck reads the bounds from it")
	)
	flag.StringVar(&outDir, "out", outDir, "directory for the traced pass's span file")
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.Name, w.Why)
		}
	case *selfcheck > 0:
		ok, err := selfCheck(*selfcheck, *seed, *seconds, *contract)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		s, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (use -list)", *workload))
		}
		if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
			fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
		}
		// One engine thread per rank and GOMAXPROCS = the host's cores: the
		// closed loop of four ranks, FD and spares shares them.
		runtime.GOMAXPROCS(runtime.NumCPU())
		r := &run{s: s, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, log: os.Stdout}
		if err := r.execute(); err != nil {
			fatal(err)
		}
		res, err := r.report(os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

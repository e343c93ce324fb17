// Command ftlanczos runs the paper's fault-tolerant Lanczos application on
// the simulated cluster: a dedicated fault-detector process, pre-allocated
// spare processes, neighbor node-level checkpointing, and a configurable
// failure schedule. It prints the run summary, the overhead decomposition
// and the computed eigenvalues. With -mode it instead regenerates one of
// the paper's artifacts or the repo's studies (modes.go); every mode has
// its own flags, listed by -mode <m> -h.
//
// Examples:
//
//	ftlanczos -workers 32 -spares 4 -iters 350 -cp-every 50
//	ftlanczos -workers 32 -kill "100:1" -kill "200:2,3"   # exit(-1) injections
//	ftlanczos -workers 16 -kill9-at 150ms -kill9 5        # external kill -9
//	ftlanczos -mode fig4 -workers 16 -iters 150           # Figure 4
//	ftlanczos -mode table1 -nodes 8,16,32 -runs 3         # Table I
//	ftlanczos -mode scenarios                             # fault matrix, self-checking
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

type killList []string

func (k *killList) String() string     { return strings.Join(*k, ";") }
func (k *killList) Set(s string) error { *k = append(*k, s); return nil }

func main() {
	mode := modeOf(os.Args[1:])
	setup, ok := modes[mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "ftlanczos: unknown -mode %q (%s)\n", mode, modeNames)
		os.Exit(2)
	}
	fs := flag.NewFlagSet("ftlanczos -mode "+mode, flag.ExitOnError)
	fs.String("mode", mode, modeNames)
	run := setup(fs)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse does not return a failure
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ftlanczos -mode %s: %v\n", mode, err)
		os.Exit(1)
	}
}

// runMode is the default mode: one fault-tolerant Lanczos job.
func runMode(fs *flag.FlagSet) func() error {
	var (
		workers   = fs.Int("workers", 16, "worker processes")
		spares    = fs.Int("spares", 4, "idle spare processes (the FD is extra)")
		iters     = fs.Int("iters", 350, "Lanczos iterations (paper: 3500)")
		cpEvery   = fs.Int64("cp-every", 50, "checkpoint interval (paper: 500)")
		nx        = fs.Int("nx", 128, "graphene cells in x")
		ny        = fs.Int("ny", 64, "graphene cells in y")
		timeScale = fs.Float64("timescale", experiment.DefaultTimeScale, "time compression factor")
		noHC      = fs.Bool("no-hc", false, "disable the health check (fault detector)")
		noCP      = fs.Bool("no-cp", false, "disable checkpointing")
		stepDelay = fs.Duration("step-delay", 0, "extra compute time per iteration (default: paper-calibrated)")
		seed      = fs.Int64("seed", 42, "seed for disorder and jitter")
		kill9     = fs.Int("kill9", -1, "logical rank to kill -9 externally (-1: none)")
		kill9At   = fs.Duration("kill9-at", 100*time.Millisecond, "when to kill -9 / kill the node")
		killNode  = fs.Bool("kill-node", false, "kill the whole node of -kill9 (wipes its local checkpoints)")
		fdRedund  = fs.Bool("fd-redundancy", false, "standby detector takes over if the FD dies")
		cpPFS     = fs.Bool("cp-pfs", false, "use synchronous global PFS checkpoints instead of neighbor-level")
		kills     killList
	)
	fs.Var(&kills, "kill", "exit(-1) injection 'iter:logical[,logical...]' (repeatable)")
	return func() error {
		cal := experiment.PaperCalibration()
		delay := *stepDelay
		if delay == 0 {
			delay = time.Duration(float64(cal.StepTime) / *timeScale)
		}

		failPlan, err := parseKills(kills)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad -kill:", err)
			os.Exit(2)
		}

		procs := 1 + *spares + *workers
		cpMode := checkpoint.ModeNeighbor
		if *cpPFS {
			cpMode = checkpoint.ModeGlobalPFS
		}
		cfg := core.Config{
			Spares:          *spares,
			FT:              experiment.FTConfig(cal, *timeScale, 8),
			EnableHC:        !*noHC,
			EnableCP:        !*noCP,
			FDRedundancy:    *fdRedund,
			CheckpointEvery: *cpEvery,
			CP:              checkpoint.Config{Mode: cpMode},
			FailPlan:        failPlan,
		}
		gen := matrix.DefaultGraphene(*nx, *ny, uint64(*seed))
		fmt.Printf("ftlanczos: %d workers + %d spares + 1 FD on %d nodes, matrix %d rows (%.1f nnz/row), %d iterations\n",
			*workers, *spares, procs, gen.Dim(), 13.0, *iters)
		fmt.Printf("           scan every %v, comm timeout %v, checkpoint every %d iters, step %v (time scale 1/%.0f)\n",
			cfg.FT.ScanInterval, cfg.FT.CommTimeout, *cpEvery, delay, *timeScale)

		var mu sync.Mutex
		var insts []*apps.Lanczos
		start := time.Now()
		job := core.Launch(experiment.ClusterConfig(procs, cal, *timeScale, *seed), cfg, func() core.App {
			a := apps.NewLanczos(apps.LanczosConfig{
				Gen:       gen,
				Opts:      lanczos.Options{MaxIters: *iters, NumEigs: 4, CheckEvery: int(*cpEvery), Seed: uint64(*seed)},
				StepDelay: delay,
			})
			mu.Lock()
			insts = append(insts, a)
			mu.Unlock()
			return a
		})
		defer job.Close()

		if *kill9 >= 0 {
			go func() {
				time.Sleep(*kill9At)
				victim := job.Layout.InitialPhysical(*kill9)
				if *killNode {
					fmt.Printf(">>> node failure of node %d (logical rank %d) at %v\n", int(victim), *kill9, time.Since(start))
					job.Cluster.KillNode(int(victim))
					return
				}
				fmt.Printf(">>> kill -9 of logical rank %d (physical %d) at %v\n", *kill9, victim, time.Since(start))
				job.Cluster.KillProc(victim)
			}()
		}

		results, ok := job.WaitTimeout(30 * time.Minute)
		if !ok {
			return errors.New("job hung")
		}
		wall := time.Since(start)

		deaths := 0
		for _, r := range results {
			if r.Death != nil {
				deaths++
				continue
			}
			if r.Err != nil {
				return fmt.Errorf("rank %d failed: %w", r.Rank, r.Err)
			}
		}

		sum := trace.Aggregate(job.Recorders)
		fmt.Printf("\ncompleted in %v wall (%.1fs model), %d process death(s), %d recovery epoch(s)\n",
			wall.Round(time.Millisecond), experiment.Model(wall, *timeScale).Seconds(),
			deaths, job.Recorders[0].Counter(trace.KFDRecoveries))
		fmt.Println("\ncritical-path overhead decomposition:")
		for p := 0; p < trace.NumPhases; p++ {
			fmt.Printf("  %-16s %10.3fs wall  %10.1fs model\n",
				trace.Phase(p).String(), sum.Max[p].Seconds(),
				experiment.Model(sum.Max[p], *timeScale).Seconds())
		}

		mu.Lock()
		defer mu.Unlock()
		for _, a := range insts {
			s := a.Solver()
			if s != nil && s.Finished() && len(s.Eigs) > 0 {
				fmt.Printf("\nlowest eigenvalues: %v (converged: %v after %d iterations)\n",
					s.Eigs, s.Converged(), s.It)
				return nil
			}
		}
		return errors.New("no surviving worker with a result")
	}
}

func parseKills(kills killList) (map[int64][]int, error) {
	if len(kills) == 0 {
		return nil, nil
	}
	out := make(map[int64][]int)
	for _, spec := range kills {
		iterStr, ranksStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("%q: want iter:logical[,logical...]", spec)
		}
		iter, err := strconv.ParseInt(iterStr, 10, 64)
		if err != nil {
			return nil, err
		}
		for _, rs := range strings.Split(ranksStr, ",") {
			l, err := strconv.Atoi(strings.TrimSpace(rs))
			if err != nil {
				return nil, err
			}
			out[iter] = append(out[iter], l)
		}
	}
	return out, nil
}

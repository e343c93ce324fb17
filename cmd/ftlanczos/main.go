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
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gaspi"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

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
		faults    []cluster.FaultEvent
	)
	fs.Func("kill", "exit(-1) injection 'iter:logical[,logical...]' (repeatable)", parseKills(&faults))
	return func() error {
		cal := experiment.PaperCalibration()
		delay := *stepDelay
		if delay == 0 {
			delay = time.Duration(float64(cal.StepTime) / *timeScale)
		}

		procs := 1 + *spares + *workers
		cpMode := checkpoint.ModeNeighbor
		if *cpPFS {
			cpMode = checkpoint.ModeGlobalPFS
		}
		ccfg := experiment.ClusterConfig(procs, cal, *timeScale, *seed)
		if len(faults) > 0 {
			ccfg.Scenario = &cluster.Scenario{Name: "-kill", Events: faults}
		}
		cfg := core.Config{
			Spares:          *spares,
			FT:              experiment.FTConfig(cal, *timeScale, 8),
			EnableHC:        !*noHC,
			EnableCP:        !*noCP,
			FDRedundancy:    *fdRedund,
			CheckpointEvery: *cpEvery,
			CP:              checkpoint.Config{Mode: cpMode},
		}
		gen := matrix.DefaultGraphene(*nx, *ny, uint64(*seed))
		fmt.Printf("ftlanczos: %d workers + %d spares + 1 FD on %d nodes, matrix %d rows (%.1f nnz/row), %d iterations\n",
			*workers, *spares, procs, gen.Dim(), 13.0, *iters)
		fmt.Printf("           scan every %v, comm timeout %v, checkpoint every %d iters, step %v (time scale 1/%.0f)\n",
			cfg.FT.ScanInterval, cfg.FT.CommTimeout, *cpEvery, delay, *timeScale)

		run, err := experiment.StartJob(experiment.JobSpec{
			Cluster: ccfg,
			Core:    cfg,
			App: apps.LanczosConfig{
				Gen: gen,
				// The QL runs every CheckEvery iterations: a job shorter
				// than one checkpoint interval runs it once, at its end.
				Opts:      lanczos.Options{MaxIters: *iters, NumEigs: 4, CheckEvery: min(int(*cpEvery), *iters), Seed: uint64(*seed)},
				StepDelay: delay,
			},
			Timeout: 30 * time.Minute,
		})
		if err != nil {
			return err
		}
		var killed []gaspi.Rank // wall-clock faults, outside the scenario
		if *kill9 >= 0 {
			job := run.Job
			victim := job.Layout.InitialPhysical(*kill9)
			killed = append(killed, victim)
			go func() {
				time.Sleep(*kill9At)
				if *killNode {
					fmt.Printf(">>> node failure of node %d (logical rank %d) at %v\n", int(victim), *kill9, *kill9At)
					job.Cluster.KillNode(int(victim))
					return
				}
				fmt.Printf(">>> kill -9 of logical rank %d (physical %d) at %v\n", *kill9, victim, *kill9At)
				job.Cluster.KillProc(victim)
			}()
		}
		res := run.Wait()
		if err := res.Err(killed...); err != nil {
			return err
		}

		deaths := 0
		for _, r := range res.Results {
			if r.Death != nil {
				deaths++
			}
		}
		fmt.Printf("\ncompleted in %v wall (%.1fs model), %d process death(s), %d recovery epoch(s)\n",
			res.Wall.Round(time.Millisecond), experiment.Model(res.Wall, *timeScale).Seconds(),
			deaths, res.Sum.SumCounter[trace.KFDRecoveries])
		fmt.Println("\ncritical-path overhead decomposition:")
		for p := 0; p < trace.NumPhases; p++ {
			fmt.Printf("  %-16s %10.3fs wall  %10.1fs model\n",
				trace.Phase(p).String(), res.Sum.Max[p].Seconds(),
				experiment.Model(res.Sum.Max[p], *timeScale).Seconds())
		}
		s := res.Solver
		fmt.Printf("\nlowest eigenvalues: %v (converged: %v after %d iterations)\n",
			s.Eigs, s.Converged(), s.It)
		return nil
	}
}

// parseKills is the -kill flag: each 'iter:logical[,logical...]' appends
// one exit(-1) event per logical rank to faults.
func parseKills(faults *[]cluster.FaultEvent) func(string) error {
	return func(spec string) error {
		iterStr, ranksStr, ok := strings.Cut(spec, ":")
		if !ok {
			return errors.New("want iter:logical[,logical...]")
		}
		iter, err := strconv.ParseInt(iterStr, 10, 64)
		if err != nil {
			return err
		}
		for _, rs := range strings.Split(ranksStr, ",") {
			l, err := strconv.Atoi(strings.TrimSpace(rs))
			if err != nil {
				return err
			}
			*faults = append(*faults, cluster.ExitAt(iter, l))
		}
		return nil
	}
}

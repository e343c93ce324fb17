// Example lanczos: the paper's fault-tolerant eigensolver end to end on a
// small simulated cluster, with one worker killed mid-run by exit(-1). The
// run recovers via a rescue process and the neighbor-level checkpoint, and
// the final eigenvalues match a failure-free serial reference.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

func main() {
	const (
		workers   = 6
		spares    = 2
		iters     = 120
		cpEvery   = 20
		timeScale = 500
	)
	gen := matrix.DefaultGraphene(32, 16, 7) // 1024-row graphene sheet
	cal := experiment.PaperCalibration()
	ccfg := experiment.ClusterConfig(1+spares+workers, cal, timeScale, 7)
	// Logical rank 2 dies at iteration 50 — between checkpoints.
	ccfg.Scenario = &cluster.Scenario{Events: []cluster.FaultEvent{cluster.ExitAt(50, 2)}}

	fmt.Printf("lanczos example: %d workers + %d spares, %d iterations, failure of logical rank 2 at iteration 50\n",
		workers, spares, iters)
	run, err := experiment.StartJob(experiment.JobSpec{
		Cluster: ccfg,
		Core: core.Config{
			Spares:          spares,
			FT:              experiment.FTConfig(cal, timeScale, 8),
			EnableHC:        true,
			EnableCP:        true,
			CheckpointEvery: cpEvery,
		},
		App: apps.LanczosConfig{
			Gen:  gen,
			Opts: lanczos.Options{MaxIters: iters, NumEigs: 3, Seed: 7},
		},
		Timeout: 10 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := run.Wait()
	deaths := 0
	for _, r := range res.Results {
		if r.Death != nil {
			deaths++
			fmt.Printf("  rank %d died (exit=%v, killed=%v) — as planned\n",
				r.Rank, r.Death.Exited, r.Death.Killed)
		}
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished in %v with %d death(s) and %d recovery epoch(s)\n",
		res.Wall.Round(time.Millisecond), deaths, res.Sum.SumCounter[trace.KFDRecoveries])

	got, err := res.Solver.Eigenvalues()
	if err != nil {
		log.Fatal(err)
	}
	want, err := lanczos.SerialLowestEigs(gen, iters, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lowest eigenvalues after recovery: %v\n", got)
	fmt.Printf("failure-free serial reference:     %v\n", want)
	if math.Abs(got[0]-want[0]) > 1e-6 {
		log.Fatalf("recovered result diverged: %v vs %v", got[0], want[0])
	}
	fmt.Println("recovered run reproduces the failure-free ground state ✓")
}

package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/lanczos"
	"repro/internal/matrix"
)

func asyncCfg() core.Config {
	return core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
		CP: checkpoint.Config{CheckpointMode: checkpoint.Async},
	}
}

// TestAsyncFailureFreeMatchesSync: the async checkpoint engine must not
// perturb the computation — the failure-free result is bitwise identical
// to the sync engine's (same workers, same reduction tree).
func TestAsyncFailureFreeMatchesSync(t *testing.T) {
	want := referenceEigs(t)
	cfg := asyncCfg()
	job, eigs := launchLanczos(t, cfg, 1+cfg.Spares+testWorker)
	waitClean(t, job)
	expectEigs(t, eigs(), want, 0, testEigs, "async-failure-free")
	// The engine actually ran: checkpoints were staged and flushed.
	sum := int64(0)
	for _, r := range job.Recorders {
		sum += r.Counter("core.checkpoints")
	}
	if sum == 0 {
		t.Fatal("no checkpoints recorded in async mode")
	}
}

// TestAsyncExitFailureRecovery: a deterministic exit(-1) failure under the
// async engine recovers from a complete neighbor checkpoint (replicated
// over the GASPI stream) and reproduces the reference eigenvalue.
func TestAsyncExitFailureRecovery(t *testing.T) {
	want := referenceEigs(t)
	cfg := asyncCfg()
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(25, 1))
	res := waitClean(t, job, lay.InitialPhysical(1))
	expectEigs(t, eigs(), want, 1e-6, 1, "async-exit-failure")
	victim := res[lay.InitialPhysical(1)]
	if victim.Death == nil || !victim.Death.Exited {
		t.Fatalf("victim death: %+v", victim.Death)
	}
	if job.Recorders[0].Counter("fd.recoveries") != 1 {
		t.Fatalf("recoveries = %d", job.Recorders[0].Counter("fd.recoveries"))
	}
}

// TestAsyncTwoProcsPerNodeFallback: with several processes per node the
// GASPI stream (one staging slot per receiver) is not wired; the async
// engine must fall back to the chunked cluster transport and still
// survive a node failure killing two workers at once.
func TestAsyncTwoProcsPerNodeFallback(t *testing.T) {
	want := referenceEigs(t)
	ccfg := clusterCfg(0)
	ccfg.Nodes = 5 // 10 ranks: FD=0, spares=1..3, workers=4..9
	ccfg.ProcsPerNode = 2
	cfg := asyncCfg()
	cfg.Spares = 3
	var mu sync.Mutex
	var instances []*apps.Lanczos
	job := core.Launch(ccfg, cfg, func() core.App {
		a := apps.NewLanczos(apps.LanczosConfig{
			Gen:       matrix.DefaultGraphene(6, 4, 33),
			Opts:      lanczos.Options{MaxIters: testIters, NumEigs: testEigs, CheckEvery: 10, Seed: 5},
			StepDelay: 2 * time.Millisecond,
		})
		mu.Lock()
		instances = append(instances, a)
		mu.Unlock()
		return a
	})
	t.Cleanup(job.Close)
	waitCheckpoints(t, job, 2)
	job.Cluster.KillNode(3) // hosts ranks 6,7 = logicals 2,3
	res, ok := job.WaitTimeout(120 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Death != nil {
			if r.Rank != 6 && r.Rank != 7 {
				t.Fatalf("rank %d unexpectedly died: %+v", r.Rank, r.Death)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	var got []float64
	mu.Lock()
	for _, a := range instances {
		if s := a.Solver(); s != nil && s.Finished() && len(s.Eigs) > 0 {
			got = append([]float64(nil), s.Eigs...)
			break
		}
	}
	mu.Unlock()
	expectEigs(t, got, want, 1e-6, 1, "async-ppn2-node-failure")
}

// TestAsyncNodeFailureRecovery kills a whole node mid-run: the node-local
// checkpoints are wiped, so the rescue must restore from the neighbor
// copy committed by the GASPI checkpoint stream's applier — and never from
// a torn one (an in-flight frame dies with the receiver's staging segment
// and is simply absent from the node store).
func TestAsyncNodeFailureRecovery(t *testing.T) {
	want := referenceEigs(t)
	cfg := asyncCfg()
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs)
	waitCheckpoints(t, job, 2)
	victim := lay.InitialPhysical(0)
	job.Cluster.KillNode(int(victim))
	waitClean(t, job, victim)
	expectEigs(t, eigs(), want, 1e-6, 1, "async-node-failure")
}

package core_test

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
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

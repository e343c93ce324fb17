package core_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gaspi"
	"repro/internal/trace"
)

// The cold rescue's background load. An unshadowed rescue's Init(restore=true)
// returns once it holds the plan; the row block is generated and cut on the
// App's own goroutine while the rescue joins the recovery, and its first
// multiply waits for it. The tests hold that load at the block's first row
// (warmHooks.loadGate) and order everything else against it by channels and
// counters, like the warm-up tests next door. Logical 1 is unshadowed and
// dies at iteration 25; checkpoints exist for iterations 0, 10 and 20.

func rescueLoadCfg() core.Config {
	return core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
}

// rescueLoadKill is the tests' one fault: logical 1 exits at iteration 25.
var rescueLoadKill = cluster.ExitAt(25, 1)

// gatedLoadHooks holds the first rescue load of logical 1's block.
func gatedLoadHooks() *warmHooks {
	h := newWarmHooks()
	h.loadLogical, h.loadNth = 1, 2
	return h
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// loadingSpare is the spare whose rescue load is under way: the one that
// has fetched a plan.
func loadingSpare(t *testing.T, recs []*trace.Recorder, spares int) gaspi.Rank {
	t.Helper()
	for r := 1; r <= spares; r++ {
		if storeFetches(recs[r]) > 0 {
			return gaspi.Rank(r)
		}
	}
	t.Fatal("no spare has fetched a plan")
	return 0
}

// TestRescueLoadOverlapsRecovery: while the rescue's row block is still
// being generated, the whole recovery completes on every rank of the new
// group, the rescue included — group commit, Rebuild, version agreement,
// state fetch, Restore. Only the rescue's first multiply waits for the
// block. (A load in front of the group commit keeps the survivors there for
// as long as the gate stays shut.)
func TestRescueLoadOverlapsRecovery(t *testing.T) {
	want := referenceEigs(t)
	h := gatedLoadHooks()
	cfg := rescueLoadCfg()
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	job := core.Launch(clusterCfg(lay.Procs, rescueLoadKill), cfg, h.newApp)
	t.Cleanup(job.Close)
	waitFor(t, h.loadEntered, "the rescue's load")
	rescue := loadingSpare(t, job.Recorders, cfg.Spares)
	group := []gaspi.Rank{lay.InitialPhysical(0), rescue, lay.InitialPhysical(2), lay.InitialPhysical(3)}
	waitUntil(t, "a restore on every rank beside the held load", func() bool {
		for _, r := range group {
			if job.Recorders[r].Counter(trace.KCoreRestores) < 1 {
				return false
			}
		}
		return true
	})
	// The victim's halo neighbours finished 25 multiplies before the kill
	// (the victim never posted iteration 25). Their 26th took the rescue's
	// halo: the rescue's first multiply has posted, which is all it does
	// before it waits for the block.
	waitUntil(t, "the rescue's halo at its neighbours", func() bool {
		for _, l := range []int{0, 2} {
			rec := job.Recorders[lay.InitialPhysical(l)]
			if rec.Counter(trace.KSpMVMFastpathIters)+rec.Counter(trace.KSpMVMFallbackIters) < 26 {
				return false
			}
		}
		return true
	})
	if n := job.Recorders[rescue].Counter(trace.KAppsBlockLoads); n != 0 {
		t.Fatalf("%d loads finished behind a shut gate", n)
	}
	close(h.loadGate)
	waitClean(t, job, lay.InitialPhysical(1))
	expectEigs(t, h.eigs(), want, 1e-6, 1, "overlapped load")
	expectCounts(t, job, map[string]int64{
		trace.KFDRecoveries:         1,
		trace.KCoreRestores:         testWorker,
		trace.KCoreRecoveryRestarts: 0,
		trace.KAppsBlockLoads:       1,
	})
	if job.Recorders[rescue].Counter(trace.KAppsBlockJoinWaitNS) <= 0 {
		t.Error("the rescue's first multiply did not wait for the held load")
	}
	if job.Recorders[rescue].Counter(trace.KAppsBlockBuildNS) <= 0 {
		t.Error("the load's generate-and-cut time was not counted")
	}
	if n := h.builds[1].Load(); n != 2 {
		t.Errorf("logical 1's block was built %d times, want 2 (its first holder, the rescue)", n)
	}
}

// TestRescueLoadSurvivesEpochRestart: a second rank dies while the rescue,
// its load still held, is between Rebuild and the version agreement. The
// rescue restarts the epoch like everybody else and binds the same pending
// split a second time; the load is neither restarted nor waited for.
func TestRescueLoadSurvivesEpochRestart(t *testing.T) {
	want := referenceEigs(t)
	h := gatedLoadHooks()
	cfg := rescueLoadCfg()
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	rebuilt, proceed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	h.afterRebuild = func(ctx *core.Ctx) {
		if int(ctx.Proc.Rank()) <= cfg.Spares && ctx.Logical == 1 {
			once.Do(func() {
				close(rebuilt)
				<-proceed
			})
		}
	}
	job := core.Launch(clusterCfg(lay.Procs, rescueLoadKill), cfg, h.newApp)
	t.Cleanup(job.Close)
	waitFor(t, h.loadEntered, "the rescue's load")
	waitFor(t, rebuilt, "the rescue's first Rebuild")
	rescue := loadingSpare(t, job.Recorders, cfg.Spares)
	second := lay.InitialPhysical(3)
	job.Cluster.KillProc(second)
	waitUntil(t, "the second failure's acknowledgment", func() bool {
		return job.Recorders[0].Counter(trace.KFDRecoveries) >= 2
	})
	close(proceed)
	waitUntil(t, "the rescue's restore after the restarted epoch", func() bool {
		return job.Recorders[rescue].Counter(trace.KCoreRestores) >= 1
	})
	if n := job.Recorders[rescue].Counter(trace.KCoreRecoveryRestarts); n < 1 {
		t.Errorf("the rescue counted %d epoch restarts", n)
	}
	if n := job.Recorders[rescue].Counter(trace.KAppsBlockLoads); n != 0 {
		t.Fatalf("%d loads finished behind a shut gate", n)
	}
	close(h.loadGate)
	waitClean(t, job, lay.InitialPhysical(1), second)
	expectEigs(t, h.eigs(), want, 1e-6, 1, "epoch restart beside the load")
	// One load per rescue: the held one for logical 1, the second rescue's
	// for logical 3.
	expectCounts(t, job, map[string]int64{
		trace.KFDRecoveries:   2,
		trace.KAppsBlockLoads: 2,
	})
	for l, n := range map[int]int64{0: 1, 1: 2, 2: 1, 3: 2} {
		if got := h.builds[l].Load(); got != n {
			t.Errorf("logical %d's block was built %d times, want %d", l, got, n)
		}
	}
}

// TestRescueLoadJoinedOnDeath: the rescue is killed while its load is held.
// The next spare adopts the rank and the job completes; the dead rescue's
// process does not end before its loader has — process death unwinds through
// the App's Close, which joins it.
func TestRescueLoadJoinedOnDeath(t *testing.T) {
	want := referenceEigs(t)
	h := gatedLoadHooks()
	cfg := rescueLoadCfg()
	procs := 1 + cfg.Spares + testWorker
	lay := cfg.Layout(procs)
	recs := make([]*trace.Recorder, procs)
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	// Per process, at the moment it ends (by return or by the death panic):
	// the loads its loader goroutines had completed.
	ended := make([]atomic.Bool, procs)
	loadsAtEnd := make([]atomic.Int64, procs)
	cl := cluster.New(clusterCfg(procs, rescueLoadKill), func(ctx *cluster.ProcCtx) error {
		r := ctx.Rank()
		defer func() {
			loadsAtEnd[r].Store(recs[r].Counter(trace.KAppsBlockLoads))
			ended[r].Store(true)
		}()
		return core.Main(ctx, cfg, lay, h.newApp, recs[r])
	})
	t.Cleanup(cl.Close)
	waitFor(t, h.loadEntered, "the first rescue's load")
	first := loadingSpare(t, recs, cfg.Spares)
	cl.KillProc(first)
	waitUntil(t, "every other process to end", func() bool {
		for r := range ended {
			if gaspi.Rank(r) != first && !ended[r].Load() {
				return false
			}
		}
		return true
	})
	if ended[first].Load() {
		t.Fatal("the killed rescue's process ended while its load was still held")
	}
	close(h.loadGate)
	res, ok := cl.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Rank == lay.InitialPhysical(1) || r.Rank == first {
			continue
		}
		if r.Err != nil || r.Death != nil {
			t.Fatalf("rank %d: err %v, death %+v", r.Rank, r.Err, r.Death)
		}
	}
	if n := loadsAtEnd[first].Load(); n != 1 {
		t.Errorf("the killed rescue's process ended with %d completed loads, want its one", n)
	}
	expectEigs(t, h.eigs(), want, 1e-6, 1, "rescue killed during its load")
	sum := trace.Aggregate(recs).SumCounter
	if sum[trace.KFDRecoveries] != 2 || sum[trace.KAppsBlockLoads] != 2 {
		t.Errorf("fd.recoveries %d, apps.block.loads %d, want 2 and 2", sum[trace.KFDRecoveries], sum[trace.KAppsBlockLoads])
	}
	if n := h.builds[1].Load(); n != 3 {
		t.Errorf("logical 1's block was built %d times, want 3 (its first holder, both rescues)", n)
	}
}

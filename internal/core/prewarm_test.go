package core_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// The hot-shadow warm-up tests. Every ordering they need — the warm-up done
// before the kill, the kill while the warm-up is blocked, the job over
// while it is blocked — is built from channels between the hooks below and
// the victim's own Step, and every assertion is a count. The layout is FD
// 0, spares 1..Spares, workers after them; logical 0 is the one shadowed
// rank, its shadow is physical rank 1.

// warmHooks is what one test shares with the Apps of its job.
type warmHooks struct {
	// entered closes when the framework's Prewarm call starts, finished
	// when it has returned (err is its result). A non-nil gate holds the
	// call in between until the test closes it.
	entered, finished chan struct{}
	gate              chan struct{}
	err               error
	// planName, when set, makes that call look for the plan checkpoint under
	// a name nobody wrote: a fetch that fails.
	planName string

	// The original holder of logical holdLogical starts iteration holdIter
	// only once holdFor is closed: the exit(-1) one iteration later
	// cannot come before the event the test orders it after.
	holdLogical int
	holdIter    int64
	holdFor     <-chan struct{}

	// The loadNth generation of logical loadLogical's row block anywhere in
	// the job (the first is its original holder's Init, the second the first
	// rescue's load) stops before its first row: loadEntered closes, and the
	// build goes on once the test closes loadGate.
	loadLogical           int
	loadNth               int64
	loadEntered, loadGate chan struct{}
	// afterRebuild, when set, runs on the rank's own goroutine after every
	// App.Rebuild that returned nil.
	afterRebuild func(ctx *core.Ctx)

	newApps atomic.Int64
	// builds counts, per logical rank, how often that rank's row block was
	// generated anywhere in the job (its first row, to be exact).
	builds [testWorker]atomic.Int64

	mu        sync.Mutex
	instances []*apps.Lanczos
}

func newWarmHooks() *warmHooks {
	return &warmHooks{
		entered: make(chan struct{}), finished: make(chan struct{}), holdLogical: -1,
		loadEntered: make(chan struct{}), loadGate: make(chan struct{}), loadLogical: -1,
	}
}

// countingGen is testGen counting the generations of each block's first row.
type countingGen struct {
	matrix.Graphene
	h *warmHooks
}

func (g countingGen) Row(i int64, cols []int64, vals []float64) ([]int64, []float64) {
	for l := range g.h.builds {
		if lo, _ := matrix.BlockRange(g.Dim(), testWorker, l); lo == i {
			if n := g.h.builds[l].Add(1); l == g.h.loadLogical && n == g.h.loadNth {
				close(g.h.loadEntered)
				<-g.h.loadGate
			}
		}
	}
	return g.Graphene.Row(i, cols, vals)
}

// hookedApp is the Lanczos app with the test's hooks around the calls the
// orderings hang on. Only the framework's warm-up goes through this
// Prewarm: a rescue's Init reaches the loader below it directly.
type hookedApp struct {
	*apps.Lanczos
	h *warmHooks
}

func (a *hookedApp) Prewarm(ctx *core.Ctx, logical int) error {
	h := a.h
	close(h.entered)
	if h.gate != nil {
		<-h.gate
	}
	if h.planName != "" {
		c := *ctx
		c.Cfg.PlanName = h.planName
		ctx = &c
	}
	h.err = a.Lanczos.Prewarm(ctx, logical)
	close(h.finished)
	return h.err
}

func (a *hookedApp) Rebuild(ctx *core.Ctx) error {
	err := a.Lanczos.Rebuild(ctx)
	if err == nil && a.h.afterRebuild != nil {
		a.h.afterRebuild(ctx)
	}
	return err
}

func (a *hookedApp) Step(ctx *core.Ctx, iter int64) error {
	h := a.h
	if ctx.Logical == h.holdLogical && iter == h.holdIter &&
		ctx.Proc.Rank() == ctx.Layout.InitialPhysical(ctx.Logical) {
		<-h.holdFor
	}
	return a.Lanczos.Step(ctx, iter)
}

func (h *warmHooks) newApp() core.App {
	h.newApps.Add(1)
	a := &hookedApp{h: h, Lanczos: apps.NewLanczos(apps.LanczosConfig{
		Gen:       countingGen{Graphene: testGen, h: h},
		Opts:      lanczos.Options{MaxIters: testIters, NumEigs: testEigs, CheckEvery: 10, Seed: 5},
		StepDelay: time.Millisecond,
	})}
	h.mu.Lock()
	h.instances = append(h.instances, a.Lanczos)
	h.mu.Unlock()
	return a
}

func (h *warmHooks) eigs() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range h.instances {
		if s := a.Solver(); s != nil && s.Finished() && len(s.Eigs) > 0 {
			return append([]float64(nil), s.Eigs...)
		}
	}
	return nil
}

// shadowCfg shadows logical 0 (replication degree 1).
func shadowCfg(spares int) core.Config {
	f := ftCfg()
	f.Replication = map[string]int{"state": 1}
	return core.Config{
		Spares: spares, FT: f, EnableHC: true, EnableCP: true, CheckpointEvery: 10,
		CP: checkpoint.Config{CheckpointMode: checkpoint.Async},
	}
}

const shadowRank = 1

// storeFetches is how many checkpoint fetches (plan or state) rank r's
// process made, by the provenance counters every fetch site feeds.
func storeFetches(r *trace.Recorder) int64 {
	return r.Counter(trace.KCoreRestoreFromLocal) + r.Counter(trace.KCoreRestoreFromNeighbor) +
		r.Counter(trace.KCoreRestoreFromRemote) + r.Counter(trace.KCoreRestoreFromPFS)
}

func expectCounts(t *testing.T, job *core.Job, want map[string]int64) {
	t.Helper()
	sum := trace.Aggregate(job.Recorders).SumCounter
	for key, n := range want {
		if got := sum[key]; got != n {
			t.Errorf("%s = %d, want %d", key, got, n)
		}
	}
}

// TestShadowWarmTakeover: the shadowed primary dies after its shadow's
// warm-up finished. The takeover finds plan and split in place — no plan
// fetch and no matrix build after the activation — and is still the
// zero-restore, zero-redo failover. It is also an ordinary recovery epoch on
// every member, survivors and shadow alike (Acked → GroupRebuild → Restore →
// Resume → Healthy): only the source of the state differs, the live mirror
// on the shadow and the store on nobody, and the replication policy alone
// selects that.
func TestShadowWarmTakeover(t *testing.T) {
	want := referenceEigs(t)
	h := newWarmHooks()
	h.holdLogical, h.holdIter, h.holdFor = 0, 24, h.finished
	var mu sync.Mutex
	workers := map[ft.Rank]*ft.Worker{}
	h.afterRebuild = func(ctx *core.Ctx) {
		mu.Lock()
		workers[ctx.Proc.Rank()] = ctx.Worker
		mu.Unlock()
	}
	cfg := shadowCfg(2)
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	job := core.Launch(clusterCfg(lay.Procs, cluster.ExitAt(25, 0)), cfg, h.newApp)
	t.Cleanup(job.Close)
	<-h.finished
	if h.err != nil {
		t.Fatalf("warm-up: %v", h.err)
	}
	if n := storeFetches(job.Recorders[shadowRank]); n != 1 {
		t.Fatalf("warm-up made %d fetches, want the plan's one", n)
	}
	waitClean(t, job, lay.InitialPhysical(0))
	expectEigs(t, h.eigs(), want, 1e-6, 1, "warm takeover")
	expectCounts(t, job, map[string]int64{
		trace.KCorePrewarmHits:      1,
		trace.KCorePrewarmDiscarded: 0,
		trace.KCorePrewarmFailed:    0,
		trace.KFTShadowFailovers:    1,
		trace.KFTShadowFallbacks:    0,
		trace.KCoreRedoIters:        0,
		// The one load in the job is the warm-up's, joined before the kill:
		// the takeover's first multiply had nothing to wait for.
		trace.KAppsBlockLoads:      1,
		trace.KAppsBlockJoinWaitNS: 0,
	})
	if n := storeFetches(job.Recorders[shadowRank]); n != 1 {
		t.Errorf("shadow made %d fetches in all: the takeover fetched again", n)
	}
	epoch := []ft.RecoveryState{ft.StateAcked, ft.StateGroupRebuild, ft.StateRestore, ft.StateResume, ft.StateHealthy}
	for _, r := range append(lay.InitialActPhys()[1:], shadowRank) {
		var got []ft.RecoveryState
		for _, tr := range workers[r].Machine().Transitions() {
			got = append(got, tr.To)
		}
		if !slices.Equal(got, epoch) {
			t.Errorf("rank %d went through %v, want %v", r, got, epoch)
		}
		rec := job.Recorders[r]
		if n := rec.Counter(trace.KFTShadowFailovers); (n == 1) != (r == shadowRank) {
			t.Errorf("rank %d counted %d failovers", r, n)
		}
		if n := rec.Counter(trace.KFTShadowFallbacks) + rec.Counter(trace.KCoreRestores) + rec.Counter(trace.KCoreRedoIters); n != 0 {
			t.Errorf("rank %d: %d fallbacks + restores + redone iterations, want none", r, n)
		}
	}
	if n := h.builds[0].Load(); n != 2 {
		t.Errorf("logical 0's block was built %d times, want 2 (its first holder, the warm-up)", n)
	}
	if n := h.newApps.Load(); n != testWorker+1 {
		t.Errorf("newApp called %d times, want once per worker and once on the shadow", n)
	}
}

// TestShadowActivationJoinsPrewarm: the primary dies while its shadow's
// warm-up is blocked. The activation waits for that warm-up and adopts what
// it loads: one App on the shadow process, one build, one fetch.
func TestShadowActivationJoinsPrewarm(t *testing.T) {
	want := referenceEigs(t)
	h := newWarmHooks()
	h.gate = make(chan struct{})
	h.holdLogical, h.holdIter, h.holdFor = 0, 24, h.entered
	cfg := shadowCfg(2)
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	job := core.Launch(clusterCfg(lay.Procs, cluster.ExitAt(25, 0)), cfg, h.newApp)
	t.Cleanup(job.Close)
	// The detector has named the shadow as the rescue: the activation is on
	// its board, and only the warm-up stands between it and the worker flow.
	deadline := time.Now().Add(30 * time.Second)
	for job.Recorders[0].Counter(trace.KFDRecoveries) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the kill was never detected")
		}
		time.Sleep(time.Millisecond)
	}
	if n := storeFetches(job.Recorders[shadowRank]); n != 0 {
		t.Fatalf("shadow fetched %d times beside a blocked warm-up", n)
	}
	close(h.gate)
	waitClean(t, job, lay.InitialPhysical(0))
	expectEigs(t, h.eigs(), want, 1e-6, 1, "joined warm-up")
	expectCounts(t, job, map[string]int64{
		trace.KCorePrewarmHits:   1,
		trace.KFTShadowFailovers: 1,
		trace.KFTShadowFallbacks: 0,
		trace.KCoreRedoIters:     0,
	})
	if n := storeFetches(job.Recorders[shadowRank]); n != 1 {
		t.Errorf("shadow made %d fetches, want the warm-up's one", n)
	}
	if n := h.builds[0].Load(); n != 2 {
		t.Errorf("logical 0's block was built %d times, want 2 (its first holder, the warm-up)", n)
	}
	if n := h.newApps.Load(); n != testWorker+1 {
		t.Errorf("newApp called %d times, want once per worker and once on the shadow", n)
	}
}

// TestShadowConsumedForOtherLogicalDiscardsPrewarm: the only spare is
// logical 0's shadow and logical 2 dies, so the detector spends the shadow
// as a plain rescue. What it warmed up is for the wrong rank: dropped, and
// the rescue loads logical 2's block cold, exactly as an unshadowed spare
// would.
func TestShadowConsumedForOtherLogicalDiscardsPrewarm(t *testing.T) {
	want := referenceEigs(t)
	h := newWarmHooks()
	h.holdLogical, h.holdIter, h.holdFor = 2, 24, h.finished
	cfg := shadowCfg(1)
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	job := core.Launch(clusterCfg(lay.Procs, cluster.ExitAt(25, 2)), cfg, h.newApp)
	t.Cleanup(job.Close)
	waitClean(t, job, lay.InitialPhysical(2))
	expectEigs(t, h.eigs(), want, 1e-6, 1, "discarded warm-up")
	expectCounts(t, job, map[string]int64{
		trace.KCorePrewarmHits:      0,
		trace.KCorePrewarmDiscarded: 1,
		trace.KCorePrewarmFailed:    0,
		trace.KFTShadowFailovers:    0,
		trace.KFDRecoveries:         1,
	})
	// Logical 0: its holder and the discarded warm-up. Logical 2: its holder
	// and the rescue's cold load.
	for l, n := range map[int]int64{0: 2, 1: 1, 2: 2, 3: 1} {
		if got := h.builds[l].Load(); got != n {
			t.Errorf("logical %d's block was built %d times, want %d", l, got, n)
		}
	}
	// The warm-up's plan, the rescue's plan, the rescue's state.
	if n := storeFetches(job.Recorders[shadowRank]); n != 3 {
		t.Errorf("shadow made %d fetches, want 3", n)
	}
	if n := h.newApps.Load(); n != testWorker+1 {
		t.Errorf("newApp called %d times, want once per worker and once on the shadow", n)
	}
}

// TestShadowPrewarmFetchFailureIsNotFatal: the warm-up cannot find the plan.
// That is counted and nothing more: the takeover loads cold and is the same
// failover as without a warm-up.
func TestShadowPrewarmFetchFailureIsNotFatal(t *testing.T) {
	want := referenceEigs(t)
	h := newWarmHooks()
	h.planName = "no-such-plan"
	h.holdLogical, h.holdIter, h.holdFor = 0, 24, h.finished
	cfg := shadowCfg(2)
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	job := core.Launch(clusterCfg(lay.Procs, cluster.ExitAt(25, 0)), cfg, h.newApp)
	t.Cleanup(job.Close)
	waitClean(t, job, lay.InitialPhysical(0))
	if h.err == nil {
		t.Fatal("the warm-up found a plan nobody wrote")
	}
	expectEigs(t, h.eigs(), want, 1e-6, 1, "failed warm-up")
	expectCounts(t, job, map[string]int64{
		trace.KCorePrewarmHits:      0,
		trace.KCorePrewarmDiscarded: 0,
		trace.KCorePrewarmFailed:    1,
		trace.KFTShadowFailovers:    1,
		trace.KFTShadowFallbacks:    0,
		trace.KCoreRedoIters:        0,
	})
	if n := storeFetches(job.Recorders[shadowRank]); n != 1 {
		t.Errorf("shadow made %d successful fetches, want the cold load's one", n)
	}
	if n := h.builds[0].Load(); n != 2 {
		t.Errorf("logical 0's block was built %d times, want 2 (its first holder, the cold load)", n)
	}
}

// TestShadowWithoutMirrorFrameRecoversCold: the primary dies before it has
// pushed a frame, so nothing ever triggered the warm-up. The shadow is a
// cold rescue with no mirror, as it was before the warm-up existed: no
// warm-up outcome is counted, the one App is built after the activation,
// and the group restarts from the store: the shadow's empty mirror offers
// no candidate, so the agreement falls through to the store (one fallback,
// counted by the shadow alone), and every member restores on the
// communication structures it rebuilt ONCE for the epoch.
func TestShadowWithoutMirrorFrameRecoversCold(t *testing.T) {
	want := referenceEigs(t)
	h := newWarmHooks()
	var epochRebuilds [1 + 2 + testWorker]atomic.Int64 // by physical rank
	h.afterRebuild = func(ctx *core.Ctx) {
		if ctx.Worker.Epoch() == 1 {
			epochRebuilds[ctx.Proc.Rank()].Add(1)
		}
	}
	cfg := shadowCfg(2)
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	// Before the first Step, hence the first frame.
	job := core.Launch(clusterCfg(lay.Procs, cluster.ExitAt(0, 0)), cfg, h.newApp)
	t.Cleanup(job.Close)
	waitClean(t, job, lay.InitialPhysical(0))
	select {
	case <-h.entered:
		t.Fatal("a warm-up ran without a mirror frame")
	default:
	}
	expectEigs(t, h.eigs(), want, 1e-6, 1, "no warm-up")
	expectCounts(t, job, map[string]int64{
		trace.KCorePrewarmHits:       0,
		trace.KCorePrewarmDiscarded:  0,
		trace.KCorePrewarmFailed:     0,
		trace.KFTShadowAppliedFrames: 0,
		trace.KFTShadowFailovers:     0,
		trace.KFTShadowFallbacks:     1,
		trace.KFDRecoveries:          1,
	})
	members := append(lay.InitialActPhys()[1:], shadowRank)
	for _, r := range members {
		want := int64(0)
		if r == shadowRank {
			want = 1
		}
		if n := job.Recorders[r].Counter(trace.KFTShadowFallbacks); n != want {
			t.Errorf("rank %d counted %d fallbacks, want %d", r, n, want)
		}
		if n := epochRebuilds[r].Load(); n != 1 {
			t.Errorf("rank %d rebuilt its communication structures %d times in the epoch, want 1", r, n)
		}
	}
	if n := h.builds[0].Load(); n != 2 {
		t.Errorf("logical 0's block was built %d times, want 2 (its first holder, the cold load)", n)
	}
	if n := h.newApps.Load(); n != testWorker+1 {
		t.Errorf("newApp called %d times, want once per worker and once on the rescue", n)
	}
}

// TestShadowShutdownWaitsForPrewarm: the job completes while the shadow's
// warm-up is blocked. The shadow process does not return before the warm-up
// has — nothing of a finished process is still reading the cluster's stores.
func TestShadowShutdownWaitsForPrewarm(t *testing.T) {
	h := newWarmHooks()
	h.gate = make(chan struct{})
	cfg := shadowCfg(2)
	procs := 1 + cfg.Spares + testWorker
	lay := cfg.Layout(procs)
	recs := make([]*trace.Recorder, procs)
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	var returned, early atomic.Int64
	cl := cluster.New(clusterCfg(procs), func(ctx *cluster.ProcCtx) error {
		err := core.Main(ctx, cfg, lay, h.newApp, recs[ctx.Rank()])
		if ctx.Rank() == shadowRank {
			select {
			case <-h.finished:
			default:
				early.Add(1)
			}
		}
		returned.Add(1)
		return err
	})
	t.Cleanup(cl.Close)
	<-h.entered
	deadline := time.Now().Add(30 * time.Second)
	for returned.Load() < int64(procs-1) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d other ranks finished", returned.Load(), procs-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(h.gate)
	res, ok := cl.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil || r.Death != nil {
			t.Fatalf("rank %d: err %v, death %+v", r.Rank, r.Err, r.Death)
		}
	}
	if early.Load() != 0 {
		t.Fatal("the shadow process returned while its warm-up was still running")
	}
	if h.err != nil {
		t.Fatalf("warm-up: %v", h.err)
	}
	if n := recs[shadowRank].Counter(trace.KCorePrewarmHits) + recs[shadowRank].Counter(trace.KCorePrewarmDiscarded); n != 0 {
		t.Fatalf("a shadow that was never activated counted %d warm-up outcomes", n)
	}
}

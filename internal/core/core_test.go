package core_test

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// clusterCfg is the test testbed; faults (cluster.ExitAt: the paper's
// exit(-1) at an iteration) arm a scenario.
func clusterCfg(nodes int, faults ...cluster.FaultEvent) cluster.Config {
	var sc *cluster.Scenario
	if len(faults) > 0 {
		sc = &cluster.Scenario{Events: faults}
	}
	return cluster.Config{
		Nodes:    nodes,
		Scenario: sc,
		Gaspi: gaspi.Config{
			Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
			Seed:    21,
		},
		Storage: cluster.StorageModel{
			LocalPerByte: time.Nanosecond / 4,
			PFSPerByte:   4 * time.Nanosecond,
			PFSWidth:     2,
		},
	}
}

func ftCfg() ft.Config {
	return ft.Config{
		ScanInterval: 5 * time.Millisecond,
		PingTimeout:  10 * time.Millisecond,
		CommTimeout:  10 * time.Millisecond,
		Threads:      4,
		StallLimit:   5 * time.Second,
	}
}

var testGen = matrix.DefaultGraphene(6, 4, 33) // 48 rows

const (
	// 40 iterations on the 48-dimensional test matrix keep the Lanczos
	// process below the ghost-eigenvalue regime: the two tracked
	// eigenvalues are then stable enough that a run compared to another
	// configuration's (another worker count, the serial reference)
	// matches to ~1e-6. A recovered run keeps the failure-free run's bits
	// (TestRecoveredRunKeepsFaultFreeBits).
	testIters  = 40
	testWorker = 4
	testEigs   = 2
)

// finishedEigs returns s's Eigenvalues once s has finished, else nil (also
// when s is nil or its QL fails).
func finishedEigs(s *lanczos.Solver) []float64 {
	if s == nil || !s.Finished() {
		return nil
	}
	eigs, err := s.Eigenvalues()
	if err != nil {
		return nil
	}
	return eigs
}

// launchLanczos runs the FT Lanczos app and returns the job plus a way to
// read the final eigenvalues.
func launchLanczos(t *testing.T, cfg core.Config, nodes int, faults ...cluster.FaultEvent) (*core.Job, func() []float64) {
	t.Helper()
	var mu sync.Mutex
	var instances []*apps.Lanczos
	job := core.Launch(clusterCfg(nodes, faults...), cfg, func() core.App {
		a := apps.NewLanczos(apps.LanczosConfig{
			Gen:  testGen,
			Opts: lanczos.Options{MaxIters: testIters, NumEigs: testEigs, Seed: 5},
			// Slow the iterations down so mid-run fault injections (sleeps
			// in the tests) land while the solver is still running.
			StepDelay: 2 * time.Millisecond,
		})
		mu.Lock()
		instances = append(instances, a)
		mu.Unlock()
		return a
	})
	t.Cleanup(job.Close)
	eigs := func() []float64 {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range instances {
			if eigs := finishedEigs(a.Solver()); eigs != nil {
				return eigs
			}
		}
		return nil
	}
	return job, eigs
}

// waitCheckpoints blocks until every initial worker has written `want`
// state checkpoints — how a test places a fault "mid-run" without guessing
// a sleep. One (iteration 0) means the whole job is past core.Main's
// start-up collectives, which wait unbounded, and past App.Init, which
// replicates the plan every rescue needs: it is inside the iteration loop
// that StallLimit and the FD guard. Two means iteration CheckpointEvery.
func waitCheckpoints(t *testing.T, job *core.Job, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	lay := job.Layout
	for l := 0; l < lay.Workers(); l++ {
		for job.Recorders[lay.InitialPhysical(l)].Counter(trace.KCoreCheckpoints) < want {
			if time.Now().After(deadline) {
				t.Fatalf("logical rank %d never wrote checkpoint %d", l, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func waitClean(t *testing.T, job *core.Job, allowDead ...gaspi.Rank) []gaspi.Result {
	t.Helper()
	res, ok := job.WaitTimeout(120 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	dead := map[gaspi.Rank]bool{}
	for _, r := range allowDead {
		dead[r] = true
	}
	for _, r := range res {
		if r.Death != nil {
			if !dead[r.Rank] {
				t.Fatalf("rank %d unexpectedly died: %+v", r.Rank, r.Death)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	return res
}

func TestFailureFreeMatchesSerialReference(t *testing.T) {
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	nodes := 1 + cfg.Spares + testWorker
	job, eigs := launchLanczos(t, cfg, nodes)
	waitClean(t, job)
	got := eigs()
	if got == nil {
		t.Fatal("no result")
	}
	want, err := lanczos.SerialLowestEigs(testGen, testIters, testEigs, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Only the converged lowest eigenvalue is robust against the different
	// summation orders of the serial and tree-based reductions.
	if math.Abs(got[0]-want[0]) > 1e-8 {
		t.Fatalf("eig 0: got %v want %v", got[0], want[0])
	}
}

// referenceEigs runs the failure-free configuration once and returns its
// final eigenvalues; failure runs must reproduce them exactly.
func referenceEigs(t *testing.T) []float64 {
	t.Helper()
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	job, eigs := launchLanczos(t, cfg, 1+cfg.Spares+testWorker)
	waitClean(t, job)
	got := eigs()
	if got == nil {
		t.Fatal("no reference result")
	}
	return got
}

// expectEigs compares the first `count` eigenvalues. tol=0 demands bitwise
// equality, valid only when the allreduce reduction tree is unchanged (the
// tree is ordered by physical rank, so a rescue process at a different rank
// legitimately regroups the floating-point sums). Recovery scenarios
// therefore compare only the converged lowest eigenvalue within a small
// relative tolerance — partially converged Ritz values are chaotically
// sensitive to last-bit differences, converged ones are not.
func expectEigs(t *testing.T, got, want []float64, tol float64, count int, label string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", label)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %v vs %v", label, got, want)
	}
	if count > len(want) {
		count = len(want)
	}
	for i := 0; i < count; i++ {
		if tol == 0 {
			if got[i] != want[i] {
				t.Fatalf("%s: eig %d differs after recovery: %v vs %v", label, i, got[i], want[i])
			}
			continue
		}
		scale := math.Max(1, math.Abs(want[i]))
		if math.Abs(got[i]-want[i]) > tol*scale {
			t.Fatalf("%s: eig %d differs after recovery: %v vs %v", label, i, got[i], want[i])
		}
	}
}

func TestBaselinesWithoutHealthCheck(t *testing.T) {
	want := referenceEigs(t)
	for _, mode := range []struct {
		name string
		cp   bool
	}{{"woHC-woCP", false}, {"woHC-withCP", true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := core.Config{
				Spares: 2, FT: ftCfg(), EnableHC: false, EnableCP: mode.cp, CheckpointEvery: 10,
			}
			job, eigs := launchLanczos(t, cfg, 1+cfg.Spares+testWorker)
			waitClean(t, job)
			expectEigs(t, eigs(), want, 0, testEigs, mode.name)
		})
	}
}

func TestExitFailureRecovery(t *testing.T) {
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(25, 1))
	res := waitClean(t, job, lay.InitialPhysical(1))
	expectEigs(t, eigs(), want, 1e-6, 1, "1-exit-failure")
	// The victim must have exited with code -1.
	victim := res[lay.InitialPhysical(1)]
	if victim.Death == nil || !victim.Death.Exited || victim.Death.Code != -1 {
		t.Fatalf("victim death: %+v", victim.Death)
	}
	// A recovery actually happened.
	if job.Recorders[0].Counter("fd.recoveries") != 1 {
		t.Fatalf("recoveries = %d", job.Recorders[0].Counter("fd.recoveries"))
	}
}

func TestKillNineFailureRecovery(t *testing.T) {
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs)
	waitCheckpoints(t, job, 2)
	victim := lay.InitialPhysical(2)
	job.Cluster.KillProc(victim)
	waitClean(t, job, victim)
	expectEigs(t, eigs(), want, 1e-6, 1, "kill-9")
}

func TestNodeFailureLosesLocalStore(t *testing.T) {
	// Killing the whole node wipes its local checkpoints: the rescue must
	// fetch plan and state from the NEIGHBOR node's copies.
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs)
	waitCheckpoints(t, job, 2)
	victim := lay.InitialPhysical(0) // logical root's node dies
	job.Cluster.KillNode(int(victim))
	waitClean(t, job, victim)
	expectEigs(t, eigs(), want, 1e-6, 1, "node-failure")
}

func TestNetworkFailureFalsePositive(t *testing.T) {
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	// The partition below heals after 100 ms; the retry-tolerant default
	// ping budget (DefaultPingRetries spaced timeouts ≈ 200 ms) would
	// outlast it and see a healthy rank again. Two retries keep the
	// detection inside the window — this test WANTS the transient
	// failure detected so the kill enforcement can be observed.
	cfg.FT.PingRetries = 2
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs)
	waitCheckpoints(t, job, 2)
	victim := lay.InitialPhysical(3)
	job.Cluster.PartitionNode(int(victim), true)
	time.Sleep(100 * time.Millisecond) // let detection + recovery begin
	job.Cluster.PartitionNode(int(victim), false)
	res := waitClean(t, job, victim)
	expectEigs(t, eigs(), want, 1e-6, 1, "network-failure")
	// The zombie must have been enforced dead (gaspi_proc_kill).
	v := res[victim]
	if v.Death == nil || !v.Death.Killed {
		t.Fatalf("partitioned process not enforced dead: %+v err=%v", v.Death, v.Err)
	}
}

func TestTwoSequentialFailures(t *testing.T) {
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(15, 0), cluster.ExitAt(32, 3))
	waitClean(t, job, lay.InitialPhysical(0), lay.InitialPhysical(3))
	expectEigs(t, eigs(), want, 1e-6, 1, "2-failures")
	if got := job.Recorders[0].Counter("fd.recoveries"); got != 2 {
		t.Fatalf("recoveries = %d, want 2", got)
	}
}

func TestThreeSimultaneousFailures(t *testing.T) {
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 3, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(30, 0), cluster.ExitAt(30, 1), cluster.ExitAt(30, 2))
	waitClean(t, job,
		lay.InitialPhysical(0), lay.InitialPhysical(1), lay.InitialPhysical(2))
	expectEigs(t, eigs(), want, 1e-6, 1, "3-simultaneous")
	// Usually detected in a single epoch (the threaded FD catches all three
	// in one scan — the paper's '3 sim. fail recovery' case); a scan already
	// in progress when the exits land can legitimately split them in two.
	if got := job.Recorders[0].Counter("fd.recoveries"); got < 1 || got > 2 {
		t.Fatalf("recoveries = %d, want 1 (tolerating a scan-split 2)", got)
	}
}

func TestFDJoinsWhenSparesExhausted(t *testing.T) {
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 0, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + testWorker, Spares: 0}
	job, eigs := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(20, 2))
	waitClean(t, job, lay.InitialPhysical(2))
	expectEigs(t, eigs(), want, 1e-6, 1, "fd-joins")
}

func TestHeatSurvivesFailure(t *testing.T) {
	const (
		n     = 64
		steps = 50
		r     = 0.4
	)
	var mu sync.Mutex
	var insts []*apps.Heat
	cfg := core.Config{
		Spares: 1, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + 3, Spares: cfg.Spares}
	job := core.Launch(clusterCfg(lay.Procs, cluster.ExitAt(23, 1)), cfg, func() core.App {
		a := apps.NewHeat(apps.HeatConfig{N: n, R: r, Steps: steps})
		mu.Lock()
		insts = append(insts, a)
		mu.Unlock()
		return a
	})
	t.Cleanup(job.Close)
	waitClean(t, job, lay.InitialPhysical(1))
	// Verify the surviving chunks against the closed-form solution
	// u^k_i = Amplitude(k)·sin(π(i+1)/(N+1)). Each chunk's maximum must
	// never exceed the analytic amplitude, and at least one instance must
	// have finished with a plausible field.
	mu.Lock()
	defer mu.Unlock()
	finished := 0
	for _, a := range insts {
		u := a.U()
		if u == nil || a.Iter() != steps {
			continue // dead victim or never-activated instance
		}
		finished++
		amp := a.Amplitude(steps)
		for _, v := range u {
			if math.Abs(v) > amp+1e-9 {
				t.Fatalf("|u| = %v exceeds analytic amplitude %v", math.Abs(v), amp)
			}
		}
	}
	if finished == 0 {
		t.Fatal("no surviving heat instance finished")
	}
}

func TestUnrecoverableWithoutDetector(t *testing.T) {
	// Spares exhausted AND the FD already joined: the next failure can
	// never be acknowledged; workers must abort with ErrStalled
	// (restriction 2), not hang forever.
	cfg := core.Config{
		Spares: 0, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	cfg.FT.StallLimit = 500 * time.Millisecond
	lay := ft.Layout{Procs: 1 + testWorker, Spares: 0}
	job, _ := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(15, 1), cluster.ExitAt(35, 2))
	res, ok := job.WaitTimeout(120 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	stalled := false
	for _, r := range res {
		if r.Err != nil && errors.Is(r.Err, ft.ErrStalled) {
			stalled = true
		}
	}
	if !stalled {
		for _, r := range res {
			t.Logf("rank %d: err=%v death=%+v", r.Rank, r.Err, r.Death)
		}
		t.Fatal("no rank reported ErrStalled")
	}
}

func TestOverheadPhasesRecorded(t *testing.T) {
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, _ := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(25, 1))
	waitClean(t, job, lay.InitialPhysical(1))
	sum := trace.Aggregate(job.Recorders)
	if sum.Max[trace.PhaseCompute] == 0 {
		t.Fatal("no compute time recorded")
	}
	if sum.Max[trace.PhaseCheckpoint] == 0 {
		t.Fatal("no checkpoint time recorded")
	}
	if sum.Max[trace.PhaseRedoWork] == 0 {
		t.Fatal("no redo-work recorded despite a failure")
	}
	if sum.Max[trace.PhaseReinit] == 0 {
		t.Fatal("no re-initialization recorded despite a recovery")
	}
	if sum.Max[trace.PhaseDetect] == 0 {
		t.Fatal("no detection time recorded despite a failure")
	}
	var anyAck bool
	for _, rec := range job.Recorders {
		if _, ok := rec.FirstEvent("ft:ack"); ok {
			anyAck = true
		}
	}
	if !anyAck {
		t.Fatal("no acknowledgment event recorded")
	}
}

// expectConfigError checks that Validate refuses a job on ccfg with an
// error naming what (experiment.StartJob launches nothing on that error).
func expectConfigError(t *testing.T, ccfg cluster.Config, cfg core.Config, what string) {
	t.Helper()
	if err := cfg.Validate(ccfg); err == nil || !strings.Contains(err.Error(), what) {
		t.Fatalf("Validate = %v, want an error naming %s", err, what)
	}
}

// TestReplicationWithoutCPIsAnError: hot shadows are fed by the checkpoint
// stream; without checkpointing there is none, and the job is refused
// rather than run without its shadows.
func TestReplicationWithoutCPIsAnError(t *testing.T) {
	f := ftCfg()
	f.Replication = map[string]int{"state": 1}
	expectConfigError(t, clusterCfg(7), core.Config{Spares: 2, FT: f, EnableHC: true}, "EnableCP")
}

// TestReplicationWithoutHCIsAnError: a shadow takes over only when the
// detector activates it; without the health check the job is refused
// rather than run without its shadows.
func TestReplicationWithoutHCIsAnError(t *testing.T) {
	f := ftCfg()
	f.Replication = map[string]int{"state": 1}
	expectConfigError(t, clusterCfg(7), core.Config{Spares: 2, FT: f, EnableCP: true}, "EnableHC")
}

func TestLayoutHelper(t *testing.T) {
	cfg := core.Config{Spares: 3}
	lay := cfg.Layout(10)
	if lay.Procs != 10 || lay.Spares != 3 || lay.Workers() != 6 || lay.Shadows != 0 {
		t.Fatalf("layout: %+v", lay)
	}
	// The shadow count is the widest degree over the families, within the
	// spares less the FD-redundancy standby.
	for _, c := range []struct {
		repl    map[string]int
		standby bool
		want    int
	}{
		{map[string]int{"state": 2, "plan": 1}, false, 2},
		{map[string]int{"state": 5}, false, 3},
		{map[string]int{"state": 5}, true, 2},
		{map[string]int{"state": -1}, false, 0},
		{map[string]int{"state": 1}, true, 1},
	} {
		cfg := core.Config{Spares: 3, FDRedundancy: c.standby, FT: ft.Config{Replication: c.repl}}
		lay := cfg.Layout(10)
		if lay.Shadows != c.want || lay.Validate() != nil {
			t.Fatalf("%v, standby %v: %d shadows (%v), want %d", c.repl, c.standby, lay.Shadows, lay.Validate(), c.want)
		}
		if r, ok := lay.ShadowOf(0); ok != (c.want > 0) || ok && r != 1 {
			t.Fatalf("%v, standby %v: ShadowOf(0) = %d, %v", c.repl, c.standby, r, ok)
		}
		if _, ok := lay.ShadowOf(c.want); ok {
			t.Fatalf("%v, standby %v: logical %d shadowed past the count", c.repl, c.standby, c.want)
		}
	}
}

func TestFDRedundancyStandbyTakeover(t *testing.T) {
	// The paper's future-work extension: kill the FD itself, then a
	// worker. The standby detector (highest spare) must take over
	// detection, and the subsequent worker failure must still be
	// recovered correctly.
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
		FDRedundancy: true,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs)
	waitCheckpoints(t, job, 1)
	job.Cluster.KillProc(0) // the FD dies
	// Wait for the standby (physical rank 2) to promote itself.
	deadline := time.Now().Add(10 * time.Second)
	for job.Recorders[lay.StandbyRank()].Counter("standby.promotions") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby never promoted itself")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim := lay.InitialPhysical(1)
	job.Cluster.KillProc(victim) // now a worker dies, under the new FD
	waitClean(t, job, 0, victim)
	expectEigs(t, eigs(), want, 1e-6, 1, "fd-redundancy")
	// The promoted standby performed the recovery.
	if got := job.Recorders[lay.StandbyRank()].Counter("fd.recoveries"); got < 1 {
		t.Fatalf("standby recoveries = %d", got)
	}
}

func TestFDRedundantStandbyStillUsableAsRescue(t *testing.T) {
	// With FD redundancy on but the FD healthy, failures must consume the
	// ordinary spare first and the standby last; a single failure must
	// therefore be rescued by physical rank 1, not the standby.
	want := referenceEigs(t)
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
		FDRedundancy: true,
	}
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, eigs := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(25, 1))
	waitClean(t, job, lay.InitialPhysical(1))
	expectEigs(t, eigs(), want, 1e-6, 1, "standby-preserved")
	if job.Recorders[lay.StandbyRank()].Counter("standby.promotions") != 0 {
		t.Fatal("standby promoted without an FD failure")
	}
}

func TestRestrictionThreeNonUniformNetworkFailure(t *testing.T) {
	// The paper's restriction 3: "Only those network failures can be
	// detected that can be uniformly seen by the effected processes as
	// well as by the FD process." Here only the link between two workers
	// fails: the FD keeps seeing both as healthy, never acknowledges, and
	// the workers eventually abort with ErrStalled instead of hanging.
	cfg := core.Config{
		Spares: 2, FT: ftCfg(), EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	cfg.FT.StallLimit = 300 * time.Millisecond
	lay := ft.Layout{Procs: 1 + cfg.Spares + testWorker, Spares: cfg.Spares}
	job, _ := launchLanczos(t, cfg, lay.Procs)
	waitCheckpoints(t, job, 1)
	a, b := lay.InitialPhysical(0), lay.InitialPhysical(1)
	job.Cluster.LinkDown(int(a), int(b), true)
	res, ok := job.WaitTimeout(120 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	stalled := 0
	for _, r := range res {
		if r.Err != nil && errors.Is(r.Err, ft.ErrStalled) {
			stalled++
		}
	}
	if stalled == 0 {
		for _, r := range res {
			t.Logf("rank %d: err=%v death=%+v", r.Rank, r.Err, r.Death)
		}
		t.Fatal("undetectable network failure should stall the affected workers")
	}
	// The FD never acknowledged anything, and nobody asked it to look: the
	// pings logical 0 sent its successor over the downed link were swallowed
	// (fabric.dropped), timed out, and a timeout is not evidence.
	if job.Recorders[0].Counter("fd.recoveries") != 0 {
		t.Fatal("the FD should not have detected the non-uniform failure")
	}
	sum := trace.Aggregate(job.Recorders).SumCounter
	if sum[trace.KFTProbePings] == 0 || sum[trace.KFTProbeNacks] != 0 || sum[trace.KFDScansNudged] != 0 {
		t.Fatalf("ft.probe.pings = %d, ft.probe.nacks = %d, fd.scans.nudged = %d, want >0, 0, 0",
			sum[trace.KFTProbePings], sum[trace.KFTProbeNacks], sum[trace.KFDScansNudged])
	}
}

// streamApp is a Lanczos app that remembers the worker it last ran on, so
// a test can read that worker's checkpoint-stream counters after the job.
type streamApp struct {
	*apps.Lanczos
	w *ft.Worker
}

func (a *streamApp) Rebuild(ctx *core.Ctx) error {
	a.w = ctx.Worker
	return a.Lanczos.Rebuild(ctx)
}

// TestTwoProcsPerNode runs two processes per node under both commit
// disciplines, with a hot shadow on logical 0. Both processes of a node
// replicate to the same receiver on the neighbor node, each through its own
// writer slot of the checkpoint stream, and the shadow is fed over the same
// stream. A node failure kills both of its workers at once and wipes the
// shared local store: the threaded FD detects both in one scan and two
// rescues restore from the neighbor node's copies. A kill of the shadowed
// primary is absorbed by its shadow with nothing recomputed.
func TestTwoProcsPerNode(t *testing.T) {
	want := referenceEigs(t)
	for _, mode := range []checkpoint.CheckpointMode{checkpoint.Sync, checkpoint.Async} {
		for _, shadowKill := range []bool{false, true} {
			name := map[checkpoint.CheckpointMode]string{checkpoint.Sync: "sync", checkpoint.Async: "async"}[mode]
			if shadowKill {
				name += "/kill-shadowed-primary"
			} else {
				name += "/node-failure"
			}
			t.Run(name, func(t *testing.T) {
				// 10 ranks: FD=0, spares=1..3, workers=4..9 (logical 0..5).
				// Spare 1 shadows logical 0 (rank 4); node 3 hosts ranks
				// 6,7 = logical 2,3.
				var faults []cluster.FaultEvent
				if shadowKill {
					faults = append(faults, cluster.ExitAt(25, 0))
				}
				ccfg := clusterCfg(5, faults...)
				ccfg.ProcsPerNode = 2
				f := ftCfg()
				f.Replication = map[string]int{"state": 1}
				cfg := core.Config{
					Spares: 3, FT: f, EnableHC: true, EnableCP: true, CheckpointEvery: 10,
					CP: checkpoint.Config{CheckpointMode: mode},
				}
				var mu sync.Mutex
				var instances []*streamApp
				job := core.Launch(ccfg, cfg, func() core.App {
					a := &streamApp{Lanczos: apps.NewLanczos(apps.LanczosConfig{
						Gen:       testGen,
						Opts:      lanczos.Options{MaxIters: testIters, NumEigs: testEigs, Seed: 5},
						StepDelay: 2 * time.Millisecond,
					})}
					mu.Lock()
					instances = append(instances, a)
					mu.Unlock()
					return a
				})
				t.Cleanup(job.Close)
				var dead []gaspi.Rank
				if shadowKill {
					dead = append(dead, 4)
				} else {
					waitCheckpoints(t, job, 2)
					job.Cluster.KillNode(3)
					dead = append(dead, 6, 7)
				}
				waitClean(t, job, dead...)
				sum := trace.Aggregate(job.Recorders).SumCounter
				if shadowKill {
					if n := sum[trace.KFTShadowFailovers]; n != 1 {
						t.Errorf("ft.shadow.failovers = %d, want 1", n)
					}
					if n := sum[trace.KCoreRedoIters]; n != 0 {
						t.Errorf("core.redo_iters = %d, want 0", n)
					}
				} else if got := job.Recorders[0].Counter("fd.recoveries"); got < 1 || got > 2 {
					// Usually both deaths land in one scan (one epoch); a
					// scan already in progress when the node dies can
					// legitimately split them in two.
					t.Fatalf("recoveries = %d, want 1 (tolerating a scan-split 2)", got)
				}
				var got []float64
				var served int64
				mu.Lock()
				for _, a := range instances {
					if got == nil {
						got = finishedEigs(a.Solver())
					}
					if a.w != nil {
						st := a.w.CPStream().Stats()
						served += st.ServedFull
					}
				}
				mu.Unlock()
				if served == 0 {
					t.Error("no neighbor copy came over the checkpoint stream")
				}
				// The reference ran with 4 workers; this run has 6, so
				// only the converged lowest eigenvalue is comparable.
				expectEigs(t, got, want, 1e-6, 1, name)
			})
		}
	}
}

// TestLateSpareIsStillActivated: the spare the FD will pick reaches Main
// long after the workers have started, lost a rank, and been acknowledged.
// Without the start-up barrier the FD's board write finds no board on the
// spare, the activation is lost, and the survivors stall in the group
// commit waiting for a rescue that never comes. (The delay stands for a
// process whose goroutine the host had not scheduled yet; it is the one
// thing a channel cannot model. With detection and acknowledgment pushed,
// the real window is a few milliseconds after launch.)
func TestLateSpareIsStillActivated(t *testing.T) {
	want := referenceEigs(t)
	f := ftCfg()
	f.StallLimit = time.Second
	cfg := core.Config{
		Spares: 2, FT: f, EnableHC: true, EnableCP: true, CheckpointEvery: 10,
	}
	procs := 1 + cfg.Spares + testWorker
	lay := cfg.Layout(procs)
	recs := make([]*trace.Recorder, procs)
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	var mu sync.Mutex
	var instances []*apps.Lanczos
	newApp := func() core.App {
		a := apps.NewLanczos(apps.LanczosConfig{
			Gen:  testGen,
			Opts: lanczos.Options{MaxIters: testIters, NumEigs: testEigs, Seed: 5},
		})
		mu.Lock()
		instances = append(instances, a)
		mu.Unlock()
		return a
	}
	cl := cluster.New(clusterCfg(procs, cluster.ExitAt(5, 1)), func(ctx *cluster.ProcCtx) error {
		if ctx.Rank() == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		return core.Main(ctx, cfg, lay, newApp, recs[ctx.Rank()])
	})
	t.Cleanup(cl.Close)
	res, ok := cl.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	victim := lay.InitialPhysical(1)
	for _, r := range res {
		if r.Rank != victim && (r.Err != nil || r.Death != nil) {
			t.Fatalf("rank %d: err %v, death %+v", r.Rank, r.Err, r.Death)
		}
	}
	if recs[0].Counter(trace.KFDRecoveries) != 1 {
		t.Fatalf("recoveries = %d", recs[0].Counter(trace.KFDRecoveries))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range instances {
		if eigs := finishedEigs(a.Solver()); eigs != nil {
			expectEigs(t, eigs, want, 1e-6, 1, "late spare")
			return
		}
	}
	t.Fatal("no rank finished with eigenvalues")
}

package experiment

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/lanczos"
	"repro/internal/trace"
)

// Tiny configurations keep the harness tests fast; the cmd/ binaries run
// the paper-scale versions.

func smallFig4() Fig4Config {
	return Fig4Config{
		// Time scale 500 compresses for tests; timeouts stay >= 2ms
		// (scheduler-noise safe).
		StudyConfig:     StudyConfig{Workers: 4, Spares: 3, Iters: 60, Nx: 16, Ny: 8, TimeScale: 500, Seed: 3},
		CheckpointEvery: 10,
		Threads:         4,
	}
}

func TestScaleHelpers(t *testing.T) {
	if got := scale(3*time.Second, 100); got != 30*time.Millisecond {
		t.Fatalf("scale = %v", got)
	}
	if got := Model(30*time.Millisecond, 100); got != 3*time.Second {
		t.Fatalf("model = %v", got)
	}
}

// TestStartJobRefusesUnhonourableConfig: a job whose hot shadows nothing
// would feed is an error from the harness, and nothing is launched.
func TestStartJobRefusesUnhonourableConfig(t *testing.T) {
	run, err := StartJob(JobSpec{
		Cluster: cluster.Config{Nodes: 7},
		Core:    core.Config{Spares: 2, EnableHC: true, FT: ft.Config{Replication: map[string]int{"state": 1}}},
	})
	if err == nil || run != nil {
		t.Fatalf("StartJob = %v, %v; want no run and an error", run, err)
	}
}

// TestEigenvaluesIndependentOfCheckpointInterval: the checkpoint interval
// does not reach the result. Two fault-free 70-iteration jobs of the same
// layout and seed, checkpointing every 10 and every 50 iterations, finish
// with the same α and β and the same Eigenvalues, bit for bit, and those
// are the Ritz values of the finished solver's α and β — not estimates
// left over from the last checkpoint (iteration 50 of 70).
func TestEigenvaluesIndependentOfCheckpointInterval(t *testing.T) {
	study := StudyConfig{Workers: 4, Spares: 2, Iters: 70, Nx: 16, Ny: 8, TimeScale: 500, Seed: 5}
	var first []float64
	var firstAlpha, firstBeta []float64
	for _, every := range []int64{10, 50} {
		cfg := core.Config{Spares: 2, EnableHC: true, EnableCP: true, CheckpointEvery: every}
		run, err := StartJob(study.job(cfg, nil, 4))
		if err != nil {
			t.Fatal(err)
		}
		res := run.Wait()
		if err := res.Err(); err != nil {
			t.Fatalf("interval %d: %v", every, err)
		}
		s := res.Solver
		if s.It != 70 || len(s.Alpha) != 70 || len(s.Beta) != 69 {
			t.Fatalf("interval %d: %d α and %d β after %d iterations", every, len(s.Alpha), len(s.Beta), s.It)
		}
		got, err := s.Eigenvalues()
		if err != nil {
			t.Fatal(err)
		}
		all, err := lanczos.TridiagEigenvalues(s.Alpha, s.Beta)
		if err != nil {
			t.Fatal(err)
		}
		if want := lanczos.LowestK(all, 4); !slices.Equal(got, want) {
			t.Fatalf("interval %d: Eigenvalues %v, Ritz values of the finished α/β %v", every, got, want)
		}
		if first == nil {
			first, firstAlpha, firstBeta = got, s.Alpha, s.Beta
			continue
		}
		if !slices.Equal(s.Alpha, firstAlpha) || !slices.Equal(s.Beta, firstBeta) {
			t.Errorf("interval %d: α/β differ from interval 10's", every)
		}
		if !slices.Equal(got, first) {
			t.Errorf("interval %d: eigenvalues %v, interval 10: %v", every, got, first)
		}
	}
}

func TestClusterConfigCalibration(t *testing.T) {
	cal := PaperCalibration()
	ccfg := ClusterConfig(8, cal, 100, 1)
	// Ping RTT = 2 messages ≈ 2*Base = PingRTT/timeScale = 10µs.
	if got := 2 * ccfg.Gaspi.Latency.Base; got != 10*time.Microsecond {
		t.Fatalf("ping RTT = %v", got)
	}
	ftcfg := FTConfig(cal, 100, 8)
	if ftcfg.ScanInterval != 30*time.Millisecond {
		t.Fatalf("scan interval = %v", ftcfg.ScanInterval)
	}
	if ftcfg.CommTimeout != 10*time.Millisecond {
		t.Fatalf("comm timeout = %v", ftcfg.CommTimeout)
	}
	if ftcfg.Threads != 8 {
		t.Fatalf("threads = %d", ftcfg.Threads)
	}
}

func TestFig4Defaults(t *testing.T) {
	c := Fig4Config{}.WithDefaults()
	if c.Workers == 0 || c.Iters == 0 || c.CheckpointEvery == 0 || c.TimeScale == 0 {
		t.Fatalf("defaults missing: %+v", c)
	}
	plans := fig4Plans(c)
	if len(plans) != 7 {
		t.Fatalf("want the paper's 7 scenarios, got %d", len(plans))
	}
	if plans[0].hc || plans[0].cp {
		t.Fatal("first scenario must be w/o HC w/o CP")
	}
	sim := plans[6].faults
	if len(sim) != 3 {
		t.Fatalf("3 sim. fail victims: %v", sim)
	}
	for _, e := range sim {
		if e.Kind != cluster.ProcExit || e.Trigger != sim[0].Trigger {
			t.Fatalf("3 sim. fail must exit(-1) at one iteration: %v", sim)
		}
	}
	// Every kill of every bar lies inside the run.
	for _, p := range plans {
		for _, e := range p.faults {
			if e.Trigger.Iter >= int64(c.Iters) {
				t.Fatalf("%s: %v lies past iteration %d", p.name, e, c.Iters)
			}
		}
	}
}

// TestFig4KillPastTheRunIsAnError: a bar whose last kill is scheduled past
// the last iteration would run fewer recoveries than its label says; the
// study must refuse it instead of reporting a failure-free bar.
func TestFig4KillPastTheRunIsAnError(t *testing.T) {
	c := smallFig4()
	c.Iters = 40 // "2 fail recovery" kills at 22 and 42
	_, err := RunFig4(c)
	if err == nil || !strings.Contains(err.Error(), "never fired") {
		t.Fatalf("RunFig4 = %v, want an unfired-fault error", err)
	}
}

func TestFig4SmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig4(smallFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 7 {
		t.Fatalf("scenarios: %d", len(res.Scenarios))
	}
	base := res.Scenarios[0]
	if base.Recoveries != 0 {
		t.Fatal("baseline must have no recoveries")
	}
	oneFail := res.Scenarios[3]
	if oneFail.Recoveries != 1 {
		t.Fatalf("1-fail recoveries = %d", oneFail.Recoveries)
	}
	twoFail := res.Scenarios[4]
	if twoFail.Recoveries != 2 {
		t.Fatalf("2-fail recoveries = %d", twoFail.Recoveries)
	}
	threeFail := res.Scenarios[5]
	if threeFail.Recoveries != 3 {
		t.Fatalf("3-fail recoveries = %d", threeFail.Recoveries)
	}
	simFail := res.Scenarios[6]
	// Simultaneous exits are usually caught in one scan, but a scan already
	// in progress when they land legitimately splits them over two epochs
	// (the paper's setup has the same ~(scan time / scan interval) race).
	if simFail.Recoveries < 1 || simFail.Recoveries > 2 {
		t.Fatalf("3-sim recoveries = %d (want 1, tolerating a scan-split 2)", simFail.Recoveries)
	}
	// Shape: every failure scenario carries redo/reinit/detect components
	// the failure-free bars do not. (Not "is slower than the failure-free
	// run": a millisecond recovery is below the scheduler noise between
	// two runs.)
	for _, sc := range res.Scenarios[3:] {
		if sc.Phases[trace.PhaseRedoWork]+sc.Phases[trace.PhaseReinit]+sc.Phases[trace.PhaseDetect] <= 0 {
			t.Fatalf("%s: no redo/reinit/detect time attributed: %v", sc.Name, sc.Phases)
		}
	}
	// All scenarios agree on the physics.
	for _, sc := range res.Scenarios[1:] {
		if len(sc.Eigs) == 0 || len(base.Eigs) == 0 {
			t.Fatalf("missing eigenvalues in %q", sc.Name)
		}
		if diff := sc.Eigs[0] - base.Eigs[0]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: eig0 %v vs baseline %v", sc.Name, sc.Eigs[0], base.Eigs[0])
		}
	}
	out := res.Render()
	for _, want := range []string{"w/o HC, w/o CP", "3 sim. fail recovery", "legend", "model[s]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1SmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunTable1(Table1Config{
		NodeCounts: []int{6, 24},
		Runs:       2,
		CleanScans: 4,
		TimeScale:  500,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Scan cost is linear in nodes, asserted on what was counted, not
		// on two µs-scale means: a scan pings every live rank but the FD
		// itself, one fewer once the victim is on the avoid list.
		if row.PingsPerScan <= float64(row.Nodes-2) || row.PingsPerScan > float64(row.Nodes-1) {
			t.Fatalf("row %d: %.2f pings per scan, want in (%d, %d]", row.Nodes, row.PingsPerScan, row.Nodes-2, row.Nodes-1)
		}
		if row.DetectMean <= 0 {
			t.Fatalf("row %d: no detection time", row.Nodes)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "detect+ack") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationSmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The workload (200 iterations of 0.4 ms) has to outlast several 12 ms
	// detector periods, or a variant ends before its first round; and the
	// 4 ms ping timeout has to be scheduler-noise safe, or the probers
	// (which do not retry) suspect live ranks and stop pinging them.
	res, err := RunAblation(AblationConfig{
		StudyConfig{Workers: 4, Iters: 200, Nx: 16, Ny: 8, TimeScale: 250, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// The dedicated FD must issue pings; the no-detector baseline none.
	if res.Rows[0].Pings != 0 {
		t.Fatalf("baseline pings = %d", res.Rows[0].Pings)
	}
	if res.Rows[1].Pings == 0 || res.Rows[2].Pings == 0 || res.Rows[3].Pings == 0 {
		t.Fatalf("detector variants must ping: %+v", res.Rows)
	}
	// All-to-all must cost (far) more pings than the dedicated FD — per
	// detection period: the totals also scale with how long each run took.
	if res.Rows[2].PingsPerPeriod <= res.Rows[1].PingsPerPeriod {
		t.Fatalf("all-to-all %.1f pings per round <= dedicated %.1f per scan", res.Rows[2].PingsPerPeriod, res.Rows[1].PingsPerPeriod)
	}
	if res.SerialDetect <= 0 || res.ThreadedDetect <= 0 {
		t.Fatal("missing detection times")
	}
	if !strings.Contains(res.Render(), "8-thread FD scan") {
		t.Fatal("render incomplete")
	}
}

func TestCPSweepSmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunCPSweep(CPSweepConfig{
		StudyConfig: StudyConfig{Workers: 4, Spares: 2, Iters: 60, Nx: 16, Ny: 8, TimeScale: 500, Seed: 3},
		Intervals:   []int64{5, 15, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 3 || len(res.Intervals) != 3 {
		t.Fatalf("rows: %d strategies, %d intervals", len(res.Strategies), len(res.Intervals))
	}
	// Structural checks only: both checkpointing strategies must have
	// recorded app-visible checkpoint time. The cost DIRECTION (PFS above
	// neighbor-level) is asserted in checkpoint.TestPFSModeCostsMoreThan
	// Neighbor under a controlled storage model — here the µs-scale
	// difference would be noise-sensitive when benchmarks co-run.
	neighbor, pfs := res.Strategies[1], res.Strategies[2]
	if neighbor.CPPhase <= 0 || pfs.CPPhase <= 0 {
		t.Fatalf("missing cp-visible time: neighbor %v, pfs %v", neighbor.CPPhase, pfs.CPPhase)
	}
	// Redo-work must grow with the checkpoint interval: the failure at
	// iteration 36 rolls back to 35 at interval 5 and to 30 at interval 30.
	// Counted in iterations; the two millisecond-scale phase times are
	// within a loaded host's scheduling noise of each other.
	if res.Intervals[2].RedoIters <= res.Intervals[0].RedoIters {
		t.Fatalf("redo did not grow with interval: %d vs %d iterations",
			res.Intervals[0].RedoIters, res.Intervals[2].RedoIters)
	}
	if res.DalyOptimal <= 0 {
		t.Fatal("no Daly optimum computed")
	}
	if !strings.Contains(res.Render(), "Young/Daly") {
		t.Fatal("render incomplete")
	}
}

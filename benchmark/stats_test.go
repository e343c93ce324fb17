package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(xs, 0.9); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that looks measured")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("pyQuartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = pyQuartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("pyQuartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSegments(t *testing.T) {
	// 101 iterations, one every millisecond from t = 1 ms.
	done := make([]int64, 101)
	for i := range done {
		done[i] = int64(i+1) * 1e6
	}
	segs := segments(done, nil)
	if len(segs) != 10 {
		t.Fatalf("%d segments, want 10", len(segs))
	}
	for _, s := range segs {
		if !near(s.rate(), 1000) {
			t.Errorf("segment rate %v, want 1000/s", s.rate())
		}
	}
	// Nothing but iterating: the job took exactly what its iterations take.
	if got := slowdown(101e6, 101, segs); !near(got, 1) {
		t.Errorf("slowdown %v, want 1", got)
	}
	// A recovery window over iterations 30..40 takes out the segments it
	// touches and leaves the others' rates alone; 30 ms lost to it show in
	// the slowdown and not in the rate.
	segs = segments(done, []span{{31e6, 41e6}})
	if len(segs) != 8 {
		t.Errorf("%d segments outside the window, want 8", len(segs))
	}
	if got := slowdown(131e6, 101, segs); !near(got, 131.0/101) {
		t.Errorf("slowdown %v, want %v", got, 131.0/101)
	}
	// A job slower in its second half: rates from 500 to 1000.
	for i := 50; i < len(done); i++ {
		done[i] = done[49] + int64(i-49)*2e6
	}
	var rates []float64
	for _, s := range segments(done, nil) {
		rates = append(rates, s.rate())
	}
	if lo, hi := quantile(rates, 0), quantile(rates, 1); !near(lo, 500) || !near(hi, 1000) {
		t.Errorf("rates span %v..%v, want 500..1000", lo, hi)
	}
	if got := segments(make([]int64, 5), nil); got != nil {
		t.Errorf("too short a job gave segments %v", got)
	}
	if !math.IsNaN(slowdown(1e6, 100, nil)) {
		t.Error("slowdown without a failure-free segment must be NaN")
	}
}

// steps builds consecutive successful Steps: iterations from..to-1, each
// dur long, back to back from start. It returns the steps and the time the
// last one ended.
func steps(from, to int64, start, dur int64) ([]stepRec, int64) {
	var out []stepRec
	for it := from; it < to; it++ {
		out = append(out, stepRec{span: span{start, start + dur}, Iter: it, OK: true})
		start += dur
	}
	return out, start
}

// killJob is a synthetic job of four logical ranks (physical 4..7 with
// three spares) in which logical 1 is killed at t = 100 ms about to run
// iteration 70, the last checkpoint being at 60:
//
//   - logical 0 (phys 4) is blocked in Step 70 when the fault fires; that
//     Step fails at 112 ms, it acknowledges, rebuilds 118..121 ms, restores
//     and redoes 60..69 from 123 ms, one millisecond each;
//   - logical 2 (phys 6) the same, but resumes last, at 125 ms;
//   - logical 3 (phys 7) is a bystander whose Step 69 straddles the fault
//     (99.5..100.5 ms, successful); its Step 70 then fails like the others;
//   - the rescue (phys 1) appears at 109 ms, Init(restore) until 116 ms.
func killJob() (*jobTrace, fault) {
	const msec = int64(1e6)
	f := fault{At: 100 * msec, Logical: 1, Phys: 5, Iter: 70}
	tr := &jobTrace{
		FDDetect: []int64{104 * msec},
		Acks:     map[int][]int64{4: {112 * msec}, 6: {113 * msec}, 7: {112 * msec}},
	}
	survivor := func(phys, logical int, lastEnd, resume int64) *rankRec {
		r := &rankRec{Phys: phys, Logical: logical}
		r.Steps, _ = steps(0, 69, lastEnd-70*msec, msec)
		r.Steps = append(r.Steps,
			stepRec{span: span{lastEnd - msec, lastEnd}, Iter: 69, OK: true},
			stepRec{span: span{lastEnd, 112 * msec}, Iter: 70, OK: false})
		r.Rebuilds = []span{{10, 20}, {118 * msec, 121 * msec}}
		r.Restores = []span{{121 * msec, 122 * msec}}
		redo, _ := steps(60, 75, resume, msec)
		r.Steps = append(r.Steps, redo...)
		return r
	}
	victim := &rankRec{Phys: 5, Logical: 1}
	victim.Steps, _ = steps(0, 70, 30*msec, msec)
	rescue := &rankRec{Phys: 1, Logical: 1, InitRestore: true, Init: span{109 * msec, 116 * msec}}
	rescue.Rebuilds = []span{{118 * msec, 121 * msec}}
	rescue.Steps, _ = steps(60, 75, 123*msec, msec)
	tr.Ranks = []*rankRec{
		survivor(4, 0, 99*msec, 123*msec),
		victim,
		survivor(6, 2, 99*msec, 125*msec),
		survivor(7, 3, 100*msec+msec/2, 123*msec),
		rescue,
	}
	return tr, f
}

func TestKillDefinitions(t *testing.T) {
	const msec = 1e6
	tr, f := killJob()
	k := tr.analyzeKill(f)
	if !k.OK {
		t.Fatal("kill not resolved")
	}
	// Logical 2 resumes last: its first Step begun after the fault is the
	// redo of iteration 60, 125..126 ms.
	if k.TTR != 26*msec || k.Critical != 6 {
		t.Errorf("TTR %v ms on rank %d, want 26 ms on rank 6", float64(k.TTR)/msec, k.Critical)
	}
	// Iteration 70 is complete everywhere when logical 2 ends it: eleven
	// Steps after 125 ms.
	if k.Catchup != 36*msec {
		t.Errorf("catch-up %v ms, want 36 ms", float64(k.Catchup)/msec)
	}
	if k.RedoIters != 10 {
		t.Errorf("redo %v iterations per rank, want 10", k.RedoIters)
	}
	if k.RescueInit != 7*msec {
		t.Errorf("rescue init %v ms, want 7 ms", float64(k.RescueInit)/msec)
	}
	want := [numPhases]int64{4 * msec, 9 * msec, 5 * msec, 3 * msec, 4 * msec, 1 * msec}
	if k.Phases != want {
		t.Errorf("phases %v, want %v", k.Phases, want)
	}
	if k.Residual != 0 {
		t.Errorf("phases do not tile the TTR: residual %v", k.Residual)
	}

	// The bystander's straddling Step 69 ended after the fault. Had it
	// counted as resumed, logical 3 would have "recovered" at 101 ms; it
	// must count from its first Step begun after the fault instead. Make
	// it the last to resume and the TTR must follow it.
	by := tr.Ranks[3]
	for i := range by.Steps {
		if s := &by.Steps[i]; s.Start >= f.At && s.OK {
			s.Start += 10 * msec
			s.End += 10 * msec
		}
	}
	k = tr.analyzeKill(f)
	if k.Critical != 7 || k.TTR != 34*msec {
		t.Errorf("with a late bystander: TTR %v ms on rank %d, want 34 ms on rank 7", float64(k.TTR)/msec, k.Critical)
	}

	// The rescue as the critical rank: its chain starts at its activation,
	// not at an ft:ack it never logs.
	tr, f = killJob()
	rs := tr.Ranks[4]
	for i := range rs.Steps {
		rs.Steps[i].Start += 5 * msec
		rs.Steps[i].End += 5 * msec
	}
	k = tr.analyzeKill(f)
	if k.Critical != 1 || k.TTR != 29*msec || k.Residual != 0 {
		t.Errorf("rescue critical: rank %d TTR %v ms residual %v, want rank 1, 29 ms, 0", k.Critical, float64(k.TTR)/msec, k.Residual)
	}
	if k.Phases[phAck] != 5*msec || k.Phases[phRepair] != 9*msec {
		t.Errorf("rescue ack/repair %v/%v, want 5/9 ms", k.Phases[phAck], k.Phases[phRepair])
	}

	// A boundary that was never recorded must show as a residual.
	tr, f = killJob()
	tr.FDDetect = nil
	if k = tr.analyzeKill(f); k.Residual <= 0.02 {
		t.Errorf("missing fd:detect hidden: residual %v", k.Residual)
	}

	// A logical rank that never runs the victim's iteration again: the
	// kill is unresolved, not a short TTR.
	tr, f = killJob()
	tr.Ranks[2].Steps = tr.Ranks[2].Steps[:71]
	if k = tr.analyzeKill(f); k.OK {
		t.Error("kill counted as recovered although logical 2 never resumed")
	}
}

func TestFailureFreeWindows(t *testing.T) {
	tr, f := killJob()
	k := tr.analyzeKill(f)
	w := recoveryWindows([]fault{f}, []killResult{k})
	if len(w) != 1 || w[0] != (span{f.At, f.At + k.Catchup}) {
		t.Fatalf("windows %v", w)
	}
	// Logical 0's samples: nothing from the recovery, nothing across the
	// failed Step, and the redone iterations only after catch-up.
	for _, s := range tr.iterSamples(0, 0, 75, 20, w) {
		if s.Period != 1e6 {
			t.Errorf("failure-free iteration with period %v, want 1 ms", s.Period)
		}
	}
	if n := len(tr.iterSamples(0, 0, 69, 20, w)); n != 69 { // pairs (0,1)..(68,69)
		t.Errorf("%d samples before the fault, want 69", n)
	}
	// Of iterations 60..74: the nine pairs (60,61)..(68,69) of the first
	// execution, and of the redo only (73,74), which starts as the window
	// ends at 136 ms.
	if n := len(tr.iterSamples(0, 60, 75, 20, w)); n != 10 {
		t.Errorf("%d samples in 60..75, want 10", n)
	}
	done := tr.timeline(0, 75)
	if done[65] != 129e6 {
		t.Errorf("iteration 65 completed at %v, want its redo at 129 ms", done[65])
	}
}

func TestSteadyTiling(t *testing.T) {
	r := &rankRec{Phys: 4, Logical: 0}
	start := int64(0)
	for it := int64(0); it < 40; it++ {
		gap := int64(2e3)
		if (it+1)%10 == 0 {
			gap = 300e3 // a checkpoint before the next Step
		}
		s := stepRec{span: span{start, start + 100e3}, Iter: it, OK: true,
			Comm: commTimes{PostNS: 1e3, WaitQueueNS: 25e3, NotifyNS: 14e3, AllreduceNS: 45e3, Posts: 2, Allreduces: 2}}
		r.Steps = append(r.Steps, s)
		start = s.End + gap
	}
	tr := &jobTrace{Ranks: []*rankRec{r}}
	samples := tr.iterSamples(0, 4, 39, 10, nil)
	var b layerBudget
	cps := 0
	for _, s := range samples {
		b.add(s)
		if s.CP {
			cps++
		}
	}
	b = b.finish()
	if cps != 3 || b.N != len(samples)-3 {
		t.Fatalf("%d checkpoint iterations of %d, budget over %d", cps, len(samples), b.N)
	}
	if !near(b.gaspi(), 85e3) || !near(b.Self, 15e3) || !near(b.Gap, 2e3) || !near(b.Period, 102e3) {
		t.Errorf("budget %+v", b)
	}
	if b.residual() > 1e-12 {
		t.Errorf("parts do not tile the period: residual %v", b.residual())
	}
	// Children that claim more time than their Step lasted cannot be
	// hidden in a negative self time.
	r.Steps[20].Comm.AllreduceNS = 400e3
	b = layerBudget{}
	for _, s := range tr.iterSamples(0, 4, 39, 10, nil) {
		b.add(s)
	}
	if b = b.finish(); b.residual() < 0.02 {
		t.Errorf("overlapping children hidden: residual %v", b.residual())
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the code's metric and
// workload lists from drifting apart.
func TestContractMatchesCode(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) || len(c.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d/%d/%d end-to-end/per-layer/workloads, code %d/%d/%d",
			len(c.EndToEnd), len(c.PerLayer), len(c.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s [%s], code has %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s [%s], code has %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workloads[%d] = %s (%q), code has %s (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
}

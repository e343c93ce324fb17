package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ft"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// hangAfter is when a job that has not ended counts as hung.
const hangAfter = 60 * time.Second

// reference is the correctness oracle of one workload: the serial Lanczos
// eigenvalue of the leading RefIters iterations, computed once, outside
// every timed window.
type reference struct {
	gen  matrix.Graphene
	eig0 float64
}

func newReference(s spec, seed int64) (reference, error) {
	gen := matrix.DefaultGraphene(s.Nx, s.Ny, uint64(seed))
	eigs, err := lanczos.SerialLowestEigs(gen, s.RefIters, 2, uint64(seed))
	if err != nil {
		return reference{}, fmt.Errorf("serial reference: %w", err)
	}
	return reference{gen: gen, eig0: eigs[0]}, nil
}

// sumKey indexes layerSums.
type sumKey int

// The stack's own counts that the layer metrics are ratios of.
const (
	sIters sumKey = iota // iterations run (per job, not times ranks)
	// fabric: Transport().Stats()
	sSent
	sDelivered
	sFastDelivered
	sDoorbellWakes
	sFabricBytes
	sNacks
	sDropped
	// checkpoint: ctx.CP.Stats() and DeltaStats(), ranks that finished
	sStaged
	sFlushed
	sStallNS
	sFlushNS
	sFullBytes
	sDeltaBytes
	sDirtyChunks
	sTotalChunks
	// ft: CPStream().Stats() pushed bytes
	sStreamBytes
	// job.Recorders counters, summed over ranks
	sFDScans
	sFDScanNS
	sFDPings
	sFastIters
	sFallbackIters
	sShadowFrames
	sCPFlushErrors
	sEpochRestarts
	sCheckpoints
	numSums
)

// layerSums holds those counts for one job or, added up, for many.
type layerSums [numSums]float64

func (t *layerSums) add(o layerSums) {
	for i := range t {
		t[i] += o[i]
	}
}

// jobResult is one job: the outside-in record, the stack's own public
// counters, and the verdict of the correctness gate.
type jobResult struct {
	Trace jobTrace
	// Failed is empty when the job passed the gate, else the reason. Wrong
	// says the failure is an incorrect result (a wrong eigenvalue, a broken
	// protocol invariant) rather than an operation that did not complete
	// (a hang, a stalled rank, an unfired event) or completed off its
	// expected path (an FD false positive, a failover that redid work).
	Failed string
	Wrong  bool
	// EigRelErr is |eig0 - reference| / max(1, |reference|); QLNS the time
	// the verification QL took.
	EigRelErr float64
	QLNS      int64
	Sums      layerSums
}

// runJob launches one job of spec s with iters iterations, waits for it,
// collects what it did and judges it. The job is the benchmark's
// operation: it either passes the whole gate or counts as failed, and is
// never retried.
func runJob(s spec, iters int, seed int64, ref reference, pool *recPool, traced bool) *jobResult {
	pool.releaseAll()
	opts := lanczos.Options{
		MaxIters: iters,
		NumEigs:  2,
		Seed:     uint64(seed),
		// The in-job QL is O(iters^2) per call and ranks leaving it at
		// different times get pinged dead by the FD; the harness runs the
		// QL itself after the job.
		CheckEvery: iters + 1,
	}
	res := &jobResult{}
	res.Trace.Launch = now()
	job := core.Launch(s.clusterConfig(seed), s.coreConfig(), func() core.App {
		return &timedApp{
			Lanczos: apps.NewLanczos(apps.LanczosConfig{Gen: ref.gen, Opts: opts, Threads: 1}),
			rec:     pool.take(),
			traced:  traced,
		}
	})
	results, done := job.WaitTimeout(hangAfter)
	if !done {
		job.Cluster.Shutdown()
		res.Failed = fmt.Sprintf("hung: not finished after %v", hangAfter)
		return res
	}
	job.Close()

	tr := &res.Trace
	tr.Ranks = append(tr.Ranks, pool.inUse()...)
	tr.Acks = make(map[int][]int64)
	for phys, rec := range job.Recorders {
		for _, e := range rec.Events() {
			switch e.Name {
			case trace.KEvFDDetect:
				tr.FDDetect = append(tr.FDDetect, at(e.At))
			case trace.KEvFTAck:
				tr.Acks[phys] = append(tr.Acks[phys], at(e.At))
			}
		}
	}
	inj := job.Cluster.Injector()
	victims := map[ft.Rank]bool{}
	if inj != nil {
		victims = inj.FiredVictims()
		for _, f := range inj.Fired() {
			tr.Faults = append(tr.Faults, fault{
				At: at(f.At), Logical: f.Event.Logical, Phys: int(f.Rank), Iter: f.Event.Trigger.Iter,
			})
		}
	}
	sum := trace.Aggregate(job.Recorders).SumCounter
	fs := job.Cluster.Job().Transport().Stats()
	t := &res.Sums
	t[sIters] = float64(iters)
	t[sSent], t[sDelivered], t[sFastDelivered] = float64(fs.Sent), float64(fs.Delivered), float64(fs.FastDelivered)
	t[sDoorbellWakes], t[sFabricBytes] = float64(fs.DoorbellWakes), float64(fs.Bytes)
	t[sNacks], t[sDropped] = float64(fs.Nacks), float64(fs.Dropped)
	for key, name := range map[sumKey]string{
		sFDScans: trace.KFDScans, sFDScanNS: trace.KFDScanNS, sFDPings: trace.KFDPings,
		sFastIters: trace.KSpMVMFastpathIters, sFallbackIters: trace.KSpMVMFallbackIters,
		sShadowFrames: trace.KFTShadowAppliedFrames, sCPFlushErrors: trace.KCoreCPFlushErrors,
		sEpochRestarts: ft.CounterEpochRestarts, sCheckpoints: trace.KCoreCheckpoints,
	} {
		t[key] = float64(sum[name])
	}
	for _, r := range tr.Ranks {
		if r.ctx == nil || victims[ft.Rank(r.Phys)] {
			continue
		}
		if cp := r.ctx.CP; cp != nil {
			a, d := cp.Stats(), cp.DeltaStats()
			t[sStaged] += float64(a.Staged)
			t[sFlushed] += float64(a.Flushed)
			t[sStallNS] += float64(a.StallTime)
			t[sFlushNS] += float64(a.FlushTime)
			t[sFullBytes] += float64(d.FullBytes)
			t[sDeltaBytes] += float64(d.DeltaBytes)
			t[sDirtyChunks] += float64(d.DirtyChunks)
			t[sTotalChunks] += float64(d.TotalChunks)
		}
		if cps := r.ctx.Worker.CPStream(); cps != nil {
			st := cps.Stats()
			t[sStreamBytes] += float64(st.PushedFullB + st.PushedDeltaB)
		}
	}

	// The gate. First reason wins; every later check would only restate it.
	for _, r := range results {
		if r.Err != nil && !victims[r.Rank] {
			res.Failed = fmt.Sprintf("rank %d: %v", r.Rank, r.Err)
			return res
		}
	}
	if inj != nil {
		if p := inj.Pending(); len(p) > 0 {
			res.Failed = fmt.Sprintf("event never fired: %v", p[0])
			return res
		}
	}
	must := func(key string, want func(int64) bool, what string) {
		if res.Failed == "" && !want(sum[key]) {
			res.Failed = fmt.Sprintf("%s = %d: %s", key, sum[key], what)
		}
	}
	zero := func(v int64) bool { return v == 0 }
	must(core.CounterAgreementViolations, zero, "version agreement lied")
	must(ft.CounterEpochRegressions, zero, "recovery epoch regressed")
	res.Wrong = res.Failed != ""
	if s.steady() {
		must(trace.KFDRecoveries, zero, "FD false positive on a failure-free job")
	}
	if s.Replication > 0 && !s.steady() {
		must(trace.KCoreRedoIters, zero, "failover redid iterations")
		must(trace.KFTShadowFailovers, func(v int64) bool { return v > 0 }, "no shadow took over")
		must(trace.KFTShadowFallbacks, zero, "failover fell back to the checkpoint store")
	}
	if res.Failed != "" {
		return res
	}
	res.verifyEig(s, iters, ref)
	return res
}

// verifyEig runs the QL method on logical 0's tridiagonal matrix (leading
// RefIters block) and compares its lowest eigenvalue with the reference.
func (res *jobResult) verifyEig(s spec, iters int, ref reference) {
	n := min(s.RefIters, iters)
	var solver *lanczos.Solver
	for _, r := range res.Trace.Ranks {
		if r.Logical == 0 && r.app != nil && r.app.Solver() != nil && len(r.app.Solver().Alpha) >= n {
			solver = r.app.Solver()
		}
	}
	if solver == nil || len(solver.Beta) < n-1 {
		res.Failed = "no holder of logical 0 finished with a tridiagonal matrix"
		return
	}
	if n < s.RefIters {
		return // a launch-only or warm-up job: too short to compare
	}
	t0 := now()
	eigs, err := lanczos.TridiagEigenvalues(solver.Alpha[:n], solver.Beta[:n-1])
	res.QLNS = now() - t0
	if err != nil {
		res.Failed, res.Wrong = fmt.Sprintf("QL: %v", err), true
		return
	}
	got := lanczos.LowestK(eigs, 1)[0]
	res.EigRelErr = math.Abs(got-ref.eig0) / math.Max(1, math.Abs(ref.eig0))
	if !experiment.EigMatches(got, ref.eig0, ref.gen.Dim()) {
		res.Wrong = true
		res.Failed = fmt.Sprintf("eig0 %v, reference %v (tolerance %.3g relative)",
			got, ref.eig0, experiment.EigTolerance(ref.gen.Dim()))
	}
}

package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// minSetups is how many launches setup_s is the median of: the measured
// jobs, topped up with two-iteration launch-only jobs.
const minSetups = 15

// probeNx, probeNy are the cells of the recovery probe's matrix: dim 1024.
const probeNx, probeNy = 32, 16

// minProbeJobs is how many single-kill jobs the recovery probe of a steady
// workload runs at least.
const minProbeJobs = 8

// acc accumulates what a sequence of jobs of one spec produced.
type acc struct {
	attempted, failed, wrong int
	reasons                  []string

	setups    []float64 // s, Launch -> first Step start
	solves    []float64 // ms, first Step start -> last Step end
	slowdowns []float64 // solve time over the job's own failure-free pace
	rates     []float64 // 1/s, failure-free segment rates of logical 0
	kills     []killResult

	sums         layerSums   // over the passed measured jobs
	budget       layerBudget // sums; logical 0, failure-free iterations
	periods      []float64   // us, logical 0, every failure-free iteration
	gapsCP       []float64   // us, gaps that contain a checkpoint
	gapsPlain    []float64   // us
	serialize    []float64   // us, App.Checkpoint on logical 0
	payloadBytes []float64
	launch       []float64 // ms, Launch -> first Init start
	inits        []float64 // ms, Init(restore=false)
	rebuilds     []float64 // ms, the initial Rebuild
	qls          []float64 // ms
	eigErrs      []float64
}

// add folds one finished job in. measured is false for launch-only and
// warm-up jobs, which contribute a set-up time and nothing else.
func (a *acc) add(s spec, iters int, jr *jobResult, measured bool) {
	a.attempted++
	tr := &jr.Trace
	first, ok := tr.firstStepStart()
	if jr.Failed == "" && !ok {
		jr.Failed = "no rank ever started a Step"
	}
	if jr.Failed != "" {
		a.failed++
		if jr.Wrong {
			a.wrong++
		}
		a.reasons = append(a.reasons, jr.Failed)
		return
	}
	a.setups = append(a.setups, float64(first-tr.Launch)/1e9)
	firstInit := int64(math.MaxInt64)
	for _, r := range tr.Ranks {
		if r.InitRestore {
			continue
		}
		firstInit = min(firstInit, r.Init.Start)
		a.inits = append(a.inits, float64(r.Init.dur())/1e6)
		if len(r.Rebuilds) > 0 {
			a.rebuilds = append(a.rebuilds, float64(r.Rebuilds[0].dur())/1e6)
		}
	}
	a.launch = append(a.launch, float64(firstInit-tr.Launch)/1e6)
	if !measured {
		return
	}

	solve := tr.lastStepEnd() - first
	a.solves = append(a.solves, float64(solve)/1e6)
	var kills []killResult
	for _, f := range tr.Faults {
		k := tr.analyzeKill(f)
		kills = append(kills, k)
		if k.OK {
			a.kills = append(a.kills, k)
		}
	}
	windows := recoveryWindows(tr.Faults, kills)
	segs := segments(tr.timeline(0, iters), windows)
	for _, sg := range segs {
		a.rates = append(a.rates, sg.rate())
	}
	a.slowdowns = append(a.slowdowns, slowdown(solve, iters, segs))

	a.sums.add(jr.Sums)
	lo, hi := int64(iters/10), int64(iters-1)
	for _, smp := range tr.iterSamples(0, lo, hi, s.coreConfig().CheckpointEvery, windows) {
		a.budget.add(smp)
		a.periods = append(a.periods, float64(smp.Period)/1e3)
		if smp.CP {
			a.gapsCP = append(a.gapsCP, float64(smp.Gap)/1e3)
		} else {
			a.gapsPlain = append(a.gapsPlain, float64(smp.Gap)/1e3)
		}
	}
	for _, r := range tr.Ranks {
		if r.Logical != 0 {
			continue
		}
		for _, c := range r.CPs {
			a.serialize = append(a.serialize, float64(c.dur())/1e3)
			a.payloadBytes = append(a.payloadBytes, float64(c.Bytes))
		}
	}
	if jr.QLNS > 0 {
		a.qls = append(a.qls, float64(jr.QLNS)/1e6)
		a.eigErrs = append(a.eigErrs, jr.EigRelErr)
	}
}

// run is one invocation of the benchmark on one workload.
type run struct {
	s       spec
	seed    int64
	seconds float64
	traced  bool
	log     io.Writer

	pool *recPool

	// plain holds the measured jobs run without the Comm decorator: all of
	// them in an untraced run, every second one in a traced run. timed
	// holds the decorated ones.
	plain, timed *acc
	launches     *acc // launch-only jobs
	probe        *acc // steady workload: the recovery probe's single-kill jobs
	cpOff, hcOff *acc // traced run: the counterfactual reruns

	calibBefore, calibAfter float64
	probes                  probeResults
	spans                   []traceSpan
}

// job runs one job and folds it into a.
func (r *run) job(a *acc, s spec, iters int, ref reference, traced, measured bool) {
	// The previous job's garbage (its matrix, its node stores) is
	// collected here, off every clock, not inside this job's iterations.
	runtime.GC()
	jr := runJob(s, iters, r.seed, ref, r.pool, traced)
	a.add(s, iters, jr, measured)
	if jr.Failed != "" {
		fmt.Fprintf(r.log, "FAILED %s job %d: %s\n", s.Name, a.attempted, jr.Failed)
		return
	}
	if traced && measured && r.spans == nil {
		r.spans = jobSpans(&jr.Trace)
	}
}

// until calls body(0), body(1), ... until d has passed, at least atLeast
// times.
func until(d time.Duration, atLeast int, body func(i int)) {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < d; i++ {
		body(i)
	}
}

func (r *run) execute() error {
	s := r.s
	r.calibBefore = calibMS()
	ref, err := newReference(s, r.seed)
	if err != nil {
		return err
	}
	r.pool = newRecPool(s.procs(), s.Iters)
	r.plain, r.timed, r.launches = new(acc), new(acc), new(acc)

	// Warm-up, discarded: page in the code, grow the runtime's pools. A
	// kill workload warms up on a whole job so that recovery is warm too.
	warmIters := s.Iters
	if s.steady() {
		warmIters = 50
	}
	r.job(new(acc), s, warmIters, ref, false, false)

	// How --seconds is spent, in percent. A steady workload gives part of
	// it to the recovery probe; the traced pass gives part of it to the
	// counterfactual reruns.
	mainPct, probePct, offPct := 100, 0, 0
	if s.steady() {
		mainPct, probePct = 70, 30
	}
	if r.traced {
		mainPct, probePct, offPct = mainPct*55/100, probePct*55/100, 12
	}
	share := func(pct int) time.Duration {
		return time.Duration(r.seconds * float64(pct) / 100 * float64(time.Second))
	}

	if !r.traced {
		until(share(mainPct), 1, func(int) { r.job(r.plain, s, s.Iters, ref, false, true) })
	} else {
		// Decorated and plain jobs alternate, so that their ratio is the
		// tracing overhead under one host state.
		until(share(mainPct), 2, func(i int) {
			if i%2 == 0 {
				r.job(r.timed, s, s.Iters, ref, true, true)
			} else {
				r.job(r.plain, s, s.Iters, ref, false, true)
			}
		})
		r.cpOff, r.hcOff = new(acc), new(acc)
		off := s
		off.Kills, off.NoCP = nil, true
		until(share(offPct), 1, func(int) { r.job(r.cpOff, off, off.Iters, ref, false, true) })
		off = s
		off.Kills, off.NoHC = nil, true
		until(share(offPct), 1, func(int) { r.job(r.hcOff, off, off.Iters, ref, false, true) })
		r.probes = runProbes(ref.gen)
	}
	if s.steady() {
		// The recovery probe: what a process kill costs under this workload's
		// checkpoint mode and spare count, on the benchmark's smallest matrix
		// (steady_comm's), where a recovery is timers and protocol. On the
		// dim-65536 matrix it is 70 % compute (the rescue's matrix build, the
		// engine rebuild, ten redone iterations) and moves with the host's
		// speed as the iteration rate does. One kill per short job.
		p := s
		p.Name += "/probe"
		p.Nx, p.Ny = probeNx, probeNy
		p.Iters, p.CPEvery, p.RefIters = 60, 20, 60
		p.Kills = []kill{{Logical: 1, Iter: 30}}
		pref, err := newReference(p, r.seed)
		if err != nil {
			return err
		}
		r.probe = new(acc)
		until(share(probePct), minProbeJobs, func(int) { r.job(r.probe, p, p.Iters, pref, false, true) })
	}

	// Top the launch count up with launch-only jobs.
	launchOnly := s
	launchOnly.Kills = nil
	for len(r.plain.setups)+len(r.timed.setups)+len(r.launches.setups) < minSetups && r.launches.failed == 0 {
		r.job(r.launches, launchOnly, 2, ref, false, false)
	}
	r.calibAfter = calibMS()
	return nil
}

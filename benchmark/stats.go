package main

import (
	"math"
	"sort"
)

// This file is the benchmark's arithmetic: order statistics, the
// iteration-rate, time-to-recover and catch-up definitions, and the two
// tilings. It knows nothing about clusters, so stats_test.go can drive it
// with synthetic records.

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// fault is one fired kill as the analysis sees it.
type fault struct {
	// At is when the injector fired.
	At int64
	// Logical is the victim's logical rank, Phys the process that was hit.
	Logical, Phys int
	// Iter is the iteration the victim was about to run.
	Iter int64
}

// jobTrace is one finished job as recorded from outside.
type jobTrace struct {
	// Launch is when core.Launch was called.
	Launch int64
	Ranks  []*rankRec
	Faults []fault
	// FDDetect holds the detector's fd:detect event times; Acks the ft:ack
	// event times per physical rank. Both ascending.
	FDDetect []int64
	Acks     map[int][]int64
}

// firstStepStart is the earliest Step start on any rank: the end of set-up.
func (t *jobTrace) firstStepStart() (int64, bool) {
	best, ok := int64(0), false
	for _, r := range t.Ranks {
		if len(r.Steps) > 0 && (!ok || r.Steps[0].Start < best) {
			best, ok = r.Steps[0].Start, true
		}
	}
	return best, ok
}

// lastStepEnd is the latest successful Step end on any rank: the solution
// is complete.
func (t *jobTrace) lastStepEnd() int64 {
	var best int64
	for _, r := range t.Ranks {
		for i := len(r.Steps) - 1; i >= 0; i-- {
			if r.Steps[i].OK {
				best = max(best, r.Steps[i].End)
				break
			}
		}
	}
	return best
}

// timeline returns, for one logical rank, when each iteration 0..iters-1
// was completed for the last time (a redone iteration counts when its redo
// finishes), whichever process held the rank. Missing iterations are 0.
func (t *jobTrace) timeline(logical, iters int) []int64 {
	done := make([]int64, iters)
	for _, r := range t.Ranks {
		if r.Logical != logical {
			continue
		}
		for _, s := range r.Steps {
			if s.OK && s.Iter >= 0 && s.Iter < int64(iters) {
				done[s.Iter] = max(done[s.Iter], s.End)
			}
		}
	}
	return done
}

func overlaps(a, b span) bool { return a.Start < b.End && b.Start < a.End }

func overlapsAny(a span, windows []span) bool {
	for _, w := range windows {
		if overlaps(a, w) {
			return true
		}
	}
	return false
}

// segment is a stretch of consecutive iterations of one job and the time
// they took.
type segment struct {
	Iters int
	NS    int64
}

func (s segment) rate() float64 { return float64(s.Iters) / (float64(s.NS) / 1e9) }

// segments cuts the completion timeline over iterations [n/10, n-1] into
// ten equal segments. Segments that touch an excluded window (a recovery)
// or an iteration that never completed are dropped: what is left is the
// failure-free part of the job.
func segments(done []int64, exclude []span) []segment {
	n := len(done)
	lo, hi := n/10, n-1
	if hi-lo < 10 {
		return nil
	}
	var out []segment
	for j := 0; j < 10; j++ {
		a := lo + j*(hi-lo)/10
		b := lo + (j+1)*(hi-lo)/10
		ta, tb := done[a], done[b]
		if ta == 0 || tb <= ta || overlapsAny(span{ta, tb}, exclude) {
			continue
		}
		out = append(out, segment{Iters: b - a, NS: tb - ta})
	}
	return out
}

// slowdown is a job's time to solution over the time its iterations would
// take at the job's own failure-free pace: 1 when nothing but iterating
// happened, above 1 by what start-up, stalls, recoveries and redone work
// cost. Both sides come from one job, so the host's speed cancels.
func slowdown(solveNS int64, iters int, segs []segment) float64 {
	return float64(solveNS) / (float64(iters) / pace(segs) * 1e9)
}

// pace is the rate over all of a job's failure-free segments together, in
// iterations per second; NaN without a segment.
func pace(segs []segment) float64 {
	var total segment
	for _, s := range segs {
		total.Iters += s.Iters
		total.NS += s.NS
	}
	if total.Iters == 0 {
		return math.NaN()
	}
	return total.rate()
}

// holders returns the records that held a logical rank, leaving out the
// process a fault hit.
func (t *jobTrace) holders(logical, exceptPhys int) []*rankRec {
	var out []*rankRec
	for _, r := range t.Ranks {
		if r.Logical == logical && r.Phys != exceptPhys {
			out = append(out, r)
		}
	}
	return out
}

// killResult is one kill's end-to-end times and their decomposition on the
// rank that resumed last.
type killResult struct {
	// TTR: fault fired → the last logical rank finished its first
	// successful Step begun after the fault.
	TTR int64
	// Catchup: fault fired → every logical rank has completed the
	// iteration the victim was about to run (TTR plus redo).
	Catchup int64
	// Phases tile TTR on the critical rank: detect, ack, repair, rebuild,
	// reload, first step.
	Phases [numPhases]int64
	// Residual is |sum(Phases) - TTR| / TTR.
	Residual float64
	// RedoIters is the number of already-completed iterations run again,
	// averaged over logical ranks.
	RedoIters float64
	// RescueInit is the rescue's Init(restore=true) span (0 if none).
	RescueInit int64
	// Critical is the physical rank that resumed last.
	Critical int
	OK       bool
}

const (
	phDetect = iota
	phAck
	phRepair
	phRebuild
	phReload
	phFirstStep
	numPhases
)

var phaseNames = [numPhases]string{"ft.detect", "ft.ack", "ft.repair", "core.rebuild", "core.reload", "core.first_step"}

func firstAtOrAfter(ts []int64, t int64) (int64, bool) {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i == len(ts) {
		return 0, false
	}
	return ts[i], true
}

// analyzeKill applies the TTR and catch-up definitions to one fault. A
// bystander's Step that began before the fault does not count as resumed,
// even if it returns nil after it; a rescue counts from the moment it
// appears.
func (t *jobTrace) analyzeKill(f fault) killResult {
	var res killResult
	var crit *rankRec
	var critStep stepRec
	var resumeEnd, catchEnd int64
	redo := 0
	for l := 0; l < workers; l++ {
		var first, caught *stepRec
		var firstRec *rankRec
		for _, r := range t.holders(l, f.Phys) {
			for i := range r.Steps {
				s := &r.Steps[i]
				if !s.OK || s.End <= f.At {
					continue
				}
				if s.Start >= f.At && (first == nil || s.End < first.End) {
					first, firstRec = s, r
				}
				if s.Iter == f.Iter && (caught == nil || s.End < caught.End) {
					caught = s
				}
			}
		}
		if first == nil || caught == nil {
			return res // this logical rank never resumed: the job failed
		}
		for _, r := range t.holders(l, f.Phys) {
			for _, s := range r.Steps {
				if s.OK && s.Start >= f.At && s.Iter < f.Iter && s.End <= caught.End {
					redo++
				}
			}
		}
		if first.End > resumeEnd {
			resumeEnd, crit, critStep = first.End, firstRec, *first
		}
		catchEnd = max(catchEnd, caught.End)
	}
	res.TTR, res.Catchup = resumeEnd-f.At, catchEnd-f.At
	res.RedoIters = float64(redo) / workers
	res.Critical = crit.Phys
	for _, r := range t.holders(f.Logical, f.Phys) {
		if r.InitRestore && r.Init.Start >= f.At {
			res.RescueInit = r.Init.dur()
		}
	}

	// Boundaries along the critical rank's own program order, so that the
	// phases tile its TTR: fault, FD detected, this rank acknowledged (a
	// rescue: was activated), Rebuild start, Rebuild end, resumed Step
	// start, resumed Step end.
	b := [numPhases + 1]int64{f.At}
	b[1], _ = firstAtOrAfter(t.FDDetect, f.At)
	if crit.InitRestore && crit.Init.Start >= f.At {
		b[2] = crit.Init.Start
	} else {
		b[2], _ = firstAtOrAfter(t.Acks[crit.Phys], f.At)
	}
	for _, rb := range crit.Rebuilds {
		if rb.Start >= f.At && rb.End <= critStep.Start {
			b[3], b[4] = rb.Start, rb.End // the last one before resuming
		}
	}
	b[5], b[6] = critStep.Start, critStep.End
	var sum int64
	for i := 0; i < numPhases; i++ {
		// A missing or out-of-order boundary shows as a residual instead
		// of being papered over.
		res.Phases[i] = max(0, b[i+1]-b[i])
		sum += res.Phases[i]
	}
	res.Residual = math.Abs(float64(sum-res.TTR)) / float64(res.TTR)
	res.OK = true
	return res
}

// recoveryWindows are the intervals [fault, caught up] to keep out of the
// failure-free rate.
func recoveryWindows(faults []fault, kills []killResult) []span {
	var out []span
	for i, k := range kills {
		if k.OK {
			out = append(out, span{faults[i].At, faults[i].At + k.Catchup})
		}
	}
	return out
}

// iterSample is one iteration of one rank seen from outside: Step start to
// the next Step start, split into the Step's gaspi children, the Step's
// self time, and the gap to the next Step (loop hooks, checkpoint, mirror
// push).
type iterSample struct {
	Period, Self, Gap int64
	Comm              commTimes
	// CP is true when the gap contains a periodic checkpoint.
	CP bool
}

// iterSamples lists the failure-free iterations of a logical rank with
// index in [lo, hi): consecutive successful Steps of one process, outside
// every excluded window.
func (t *jobTrace) iterSamples(logical int, lo, hi, cpEvery int64, exclude []span) []iterSample {
	var out []iterSample
	for _, r := range t.Ranks {
		if r.Logical != logical {
			continue
		}
		for i := 0; i+1 < len(r.Steps); i++ {
			s, n := r.Steps[i], r.Steps[i+1]
			if !s.OK || !n.OK || n.Iter != s.Iter+1 || s.Iter < lo || s.Iter >= hi ||
				overlapsAny(span{s.Start, n.Start}, exclude) {
				continue
			}
			out = append(out, iterSample{
				Period: n.Start - s.Start,
				// Children that claim more than the Step lasted must show
				// in the tiling residual, not vanish in a negative self time.
				Self: max(0, s.dur()-s.Comm.total()),
				Gap:  n.Start - s.End,
				Comm: s.Comm,
				CP:   cpEvery > 0 && n.Iter%cpEvery == 0,
			})
		}
	}
	return out
}

// layerBudget is the steady tiling: nanoseconds per iteration of each part,
// over iterations without a checkpoint in their gap. It holds sums while
// iterations are added and means after finish.
type layerBudget struct {
	Post, WaitQueue, Notify, Allreduce, Self, Gap, Period float64
	Posts, Allreduces                                     float64
	N                                                     int
}

func (b layerBudget) gaspi() float64 { return b.Post + b.WaitQueue + b.Notify + b.Allreduce }

// residual is |parts - period| / period.
func (b layerBudget) residual() float64 {
	if b.Period == 0 {
		return math.NaN()
	}
	return math.Abs(b.gaspi()+b.Self+b.Gap-b.Period) / b.Period
}

// add folds one iteration in; finish turns the sums into means.
func (b *layerBudget) add(s iterSample) {
	if s.CP {
		return
	}
	b.N++
	b.Post += float64(s.Comm.PostNS)
	b.WaitQueue += float64(s.Comm.WaitQueueNS)
	b.Notify += float64(s.Comm.NotifyNS)
	b.Allreduce += float64(s.Comm.AllreduceNS)
	b.Self += float64(s.Self)
	b.Gap += float64(s.Gap)
	b.Period += float64(s.Period)
	b.Posts += float64(s.Comm.Posts)
	b.Allreduces += float64(s.Comm.Allreduces)
}

func (b layerBudget) finish() layerBudget {
	if b.N == 0 {
		return b
	}
	n := float64(b.N)
	for _, p := range []*float64{&b.Post, &b.WaitQueue, &b.Notify, &b.Allreduce, &b.Self, &b.Gap, &b.Period, &b.Posts, &b.Allreduces} {
		*p /= n
	}
	return b
}

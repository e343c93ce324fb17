package experiment

// Shared classification plumbing for the scenario matrix and the chaos
// fuzzer (internal/chaos): the explicit result-correctness tolerance and
// the episode-level invariant sweep. Extracted so a fuzzed episode and a
// hand-written matrix row are judged by exactly the same rules — a
// frozen chaos regression replayed in CI must classify the way the
// fuzzer classified it when it was frozen.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/trace"
)

// EigTolerance is the relative tolerance under which a recovered run's
// lowest eigenvalue counts as matching the serial reference, as a
// function of the matrix dimension. The distributed reductions sum in
// another order than the serial solver (a recovery keeps the fault-free
// run's order: the rebuilt group's member index is the logical rank), so
// the parallel result is not bit-identical to the serial one; the
// accumulated reassociation error grows with the vector length of the dot
// products, hence the sqrt(dim) scaling on top of a base a few orders
// above double-precision roundoff. Wrong-answer
// classification (silent corruption) must compare against this explicit
// envelope — a near-miss inside it is a recovered run, not corruption.
func EigTolerance(dim int64) float64 {
	if dim < 1 {
		dim = 1
	}
	return 1e-7 * math.Sqrt(float64(dim))
}

// EigMatches reports whether a run's converged lowest eigenvalue matches
// the serial reference within the explicit per-matrix-size tolerance
// (relative, floored at magnitude 1 so near-zero references do not make
// the envelope vanish).
func EigMatches(got, want float64, dim int64) bool {
	scale := math.Max(1, math.Abs(want))
	return math.Abs(got-want) <= EigTolerance(dim)*scale
}

// ttrPhases are the core-side time-to-recover decomposition counters;
// every one of them measures a sub-span of core.ttr.total_ns.
var ttrPhases = []string{trace.KCoreTTRRebuildNS, trace.KCoreTTRRestoreNS, trace.KCoreTTRResumeNS}

// scenarioInvariants sweeps the per-rank recorders for violations of the
// episode-level invariants the fault-tolerance stack must uphold in
// EVERY run, regardless of classified outcome:
//
//   - no recovery epoch regression: ft.epoch.regressions == 0 (an
//     acknowledgment never carries an older epoch than one already
//     processed);
//   - version agreement never resolves to an unrestorable version:
//     core.agreement_violations == 0 (the confirm min-reduce never lies);
//   - TTR counters monotone: for every surviving rank of a recovered
//     run, the per-phase decomposition counters are non-negative and
//     their sum never exceeds core.ttr.total_ns (phases are sub-spans of
//     the recovery they decompose).
//
// The TTR check is restricted to recovered outcomes and non-victim
// ranks: a rank killed (or aborted) mid-recovery has legitimately
// charged a phase without ever completing the total span.
func scenarioInvariants(recs []*trace.Recorder, outcome ScenarioOutcome, victims map[gaspi.Rank]bool) []string {
	var out []string
	sum := trace.Aggregate(recs)
	if n := sum.SumCounter[ft.CounterEpochRegressions]; n != 0 {
		out = append(out, fmt.Sprintf("recovery epoch regressed %d time(s)", n))
	}
	if n := sum.SumCounter[core.CounterAgreementViolations]; n != 0 {
		out = append(out, fmt.Sprintf("version agreement confirmed an unrestorable version %d time(s)", n))
	}
	if outcome != OutcomeRecovered {
		return out
	}
	for rank, rec := range recs {
		if victims[gaspi.Rank(rank)] {
			continue
		}
		total := rec.Counter(trace.KCoreTTRTotalNS)
		var phases int64
		for _, c := range ttrPhases {
			v := rec.Counter(c) //ftlint:ignore tracekey: c ranges over ttrPhases, a list of registry constants
			if v < 0 {
				out = append(out, fmt.Sprintf("rank %d: %s negative (%d)", rank, c, v))
			}
			phases += v
		}
		if total < 0 || phases > total {
			out = append(out, fmt.Sprintf("rank %d: TTR phases %dns exceed total %dns", rank, phases, total))
		}
	}
	return out
}

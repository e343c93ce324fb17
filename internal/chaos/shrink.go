package chaos

import "repro/internal/cluster"

// Shrink minimizes a failing episode: greedy event removal (ddmin with
// subset size 1 — schedules are short) followed by knob simplification,
// keeping a reduction only when the re-run episode fails with the SAME
// signature (outcome + failure categories). The shrunk episode is what
// gets frozen: the smallest schedule that still reproduces the bug.
//
// Removing events changes what the oracle predicts, so the reduced
// spec's Expect is recomputed before each re-run; reductions that land
// on the non-strict spares+1 boundary are judged only on forbidden
// outcomes and invariants (OracleExpect reports non-strict there).
//
// The second return value is the number of candidate re-runs executed —
// each is a full simulated-cluster run, so the caller can budget.
func Shrink(r *Runner, failing EpisodeResult) (EpisodeResult, int) {
	sig := failing.Signature()
	best := failing
	runs := 0

	try := func(ep Episode) bool {
		workerKills, shadowKills := splitKills(ep.Spec.Scenario.Events)
		ep.Spec.Expect, _ = OracleExpect(workerKills, shadowKills, ep.Spec.Spares)
		res := r.Run(ep)
		runs++
		if len(res.Failures) > 0 && res.Signature() == sig {
			best = res
			return true
		}
		return false
	}

	// Pass 1: drop events one at a time until no single removal keeps
	// the failure alive.
	for reduced := true; reduced; {
		reduced = false
		events := best.Episode.Spec.Scenario.Events
		for i := range events {
			ep := best.Episode
			ep.Spec.Scenario.Events = append(append([]cluster.FaultEvent(nil), events[:i]...), events[i+1:]...)
			if try(ep) {
				reduced = true
				break
			}
		}
	}

	// Pass 2: simplify the engine knobs — a failure that survives with
	// the plain synchronous full-blob engine is a much smaller haystack.
	// Async can only be dropped when no during-flush trigger remains
	// (the trigger would never fire without the background flusher).
	if best.Episode.Spec.Async && !needsAsync(best.Episode) {
		ep := best.Episode
		ep.Spec.Async = false
		try(ep)
	}
	if best.Episode.Spec.Replication != 0 && !needsShadow(best.Episode) {
		// A failure that reproduces without hot shadows is not a failover
		// bug; only a remaining shadow-apply trigger pins the knob.
		ep := best.Episode
		ep.Spec.Replication = 0
		try(ep)
	}
	if best.Episode.Spec.PFSEvery != 0 {
		ep := best.Episode
		ep.Spec.PFSEvery = 0
		try(ep)
	}
	return best, runs
}

func needsAsync(ep Episode) bool {
	for _, e := range ep.Spec.Scenario.Events {
		if e.Trigger.Kind == cluster.DuringFlush {
			return true
		}
	}
	return false
}

// needsShadow reports whether the schedule still carries a trigger that
// can only fire on a hot shadow's mirror-apply loop — such a trigger
// pins the replication degree (shadows run under either engine).
func needsShadow(ep Episode) bool {
	for _, e := range ep.Spec.Scenario.Events {
		if e.Trigger.Kind == cluster.DuringShadowApply {
			return true
		}
	}
	return false
}

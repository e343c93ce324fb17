// Package chaos is the seeded random scenario fuzzer over the
// declarative fault-scenario engine (cluster.Scenario). Where the
// hand-written scenario matrix (internal/experiment) pins down the named
// compound cases, the fuzzer samples the schedule space around them —
// random fault kind × trigger kind × timing × multiplicity, including
// the compound shapes the recovery epoch state machine exists for — and
// classifies every episode through the same RunScenario harness and the
// same episode-level invariants.
//
// Every episode is fully determined by its (seed, generator version)
// pair: Generate is a pure function of the seed, and the simulated
// testbed is seeded from the episode configuration, so the same seed
// reproduces the same schedule and the same classification. A failing
// episode is therefore a replayable regression: the fuzzer shrinks it
// and freezes it into the corpus (corpus/*.json), which
// `go test ./internal/chaos` replays forever after.
package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/experiment"
)

// Episode testbed shape, shared by the generator (trigger thresholds
// must land inside the run) and the runner (DefaultBase).
const (
	epIters = 40
	// epMinWorkers..epMaxWorkers is the per-episode worker-count range.
	// The serial reference depends only on the matrix (Nx, Ny) and the
	// iteration count, so worker count can vary per episode under one
	// amortized reference solve.
	epMinWorkers = 4
	epMaxWorkers = 6
)

// cpChoices are the per-episode checkpoint intervals.
var cpChoices = []int64{6, 8, 10}

// Episode is one fuzzed run: the generated fault schedule plus the
// run-shape knobs it executes under. Fully JSON-serializable — the
// corpus freezes episodes verbatim.
type Episode struct {
	// Seed generated this episode (Generate(Seed) == this episode).
	Seed int64 `json:"seed"`
	// Shape names the generator branch taken (for triage, not replay).
	Shape string `json:"shape"`
	// Workers is the worker count for this episode.
	Workers int `json:"workers"`
	// CheckpointEvery is the checkpoint interval for this episode.
	CheckpointEvery int64 `json:"checkpoint_every"`
	// Spec is the scenario specification handed to the shared harness:
	// the fault schedule, spare count, checkpoint-engine knobs and the
	// oracle-expected outcome.
	Spec experiment.ScenarioSpec `json:"spec"`
}

// OracleExpect predicts an episode's outcome from its gross shape: with
// enough spares for every scheduled worker fault the run must recover;
// with at least two more worker faults than the remaining pool it must
// abort crisply. The in-between boundary (workerKills == pool+1) is
// intentionally non-strict: the detector can join the workers as the
// last rescue, so either recovered or a crisp abort is acceptable
// there. The generator never emits boundary episodes, but shrinking can
// reduce into one.
//
// shadowKills counts faults landing on hot shadows (during-shadow-apply
// triggers). A dead shadow never loses an iteration of work — its
// primary keeps computing — but it CONSUMES a spare: a consumed shadow
// is not an available spare, so the pool left for worker deaths shrinks
// by one per shadow kill.
//
// The prediction is deliberately blind to where the state comes from. An
// episode may legally take the zero-restore takeover onto a hot shadow,
// restart the epoch after a mid-repair death, or fall through to the
// checkpoint rungs (a torn mirror, a fresher notice naming several
// victims) — all are correct executions and all must end in the same
// outcome, which is the only thing the oracle pins.
func OracleExpect(workerKills, shadowKills, spares int) (want experiment.ScenarioOutcome, strict bool) {
	pool := spares - shadowKills
	if pool < 0 {
		pool = 0
	}
	if workerKills <= pool {
		return experiment.OutcomeRecovered, true
	}
	if workerKills >= pool+2 {
		return experiment.OutcomeUnrecoverable, true
	}
	return experiment.OutcomeRecovered, false
}

// splitKills partitions a schedule by what each fault consumes: a
// during-shadow-apply trigger lands on the victim's hot shadow (a
// spare), every other trigger kills the worker holding the targeted
// logical rank.
func splitKills(events []cluster.FaultEvent) (workerKills, shadowKills int) {
	for _, e := range events {
		if e.Trigger.Kind == cluster.DuringShadowApply {
			shadowKills++
		} else {
			workerKills++
		}
	}
	return
}

// Generate derives an episode from a seed. Pure: the same seed always
// yields the byte-identical episode (the determinism CI gate depends on
// this). Schedules are well-formed by construction — every trigger is
// expected to fire, and the knobs a trigger depends on are forced (a
// during-flush trigger implies the async engine; multiple store-destroying
// faults imply the PFS fallback) — so a non-recovered or unfired episode
// indicates a product bug, not a generator artifact.
func Generate(seed int64) Episode {
	rng := rand.New(rand.NewSource(seed))
	ep := Episode{
		Seed:            seed,
		Workers:         epMinWorkers + rng.Intn(epMaxWorkers-epMinWorkers+1),
		CheckpointEvery: cpChoices[rng.Intn(len(cpChoices))],
	}
	cp := ep.CheckpointEvery

	// Victim logical ranks, shuffled. Rank 0 is excluded like in the
	// hand-written matrix: it is an ordinary worker, but keeping one
	// never-killed rank guarantees a surviving original result collector
	// in every recovered episode.
	victims := rng.Perm(ep.Workers - 1)
	for i := range victims {
		victims[i]++
	}

	kill := func(rng *rand.Rand) cluster.FaultKind {
		if rng.Intn(2) == 0 {
			return cluster.ProcExit
		}
		return cluster.ProcKill
	}

	var events []cluster.FaultEvent
	shape := rng.Intn(100)
	switch {
	case shape < 10:
		ep.Shape = "baseline"

	case shape < 55:
		// A single random fault: any kind, any self-sufficient trigger.
		kind := cluster.FaultKind(rng.Intn(4))
		var trig cluster.Trigger
		switch rng.Intn(3) {
		case 0:
			ep.Shape = "single/at-iteration"
			trig = cluster.Trigger{Kind: cluster.AtIteration, Iter: safeIter(rng, cp)}
		case 1:
			ep.Shape = "single/during-flush"
			ep.Spec.Async = true
			trig = cluster.Trigger{Kind: cluster.DuringFlush, Version: flushVersion(rng, cp)}
		default:
			ep.Shape = "single/during-collective"
			trig = cluster.Trigger{Kind: cluster.DuringCollective, Count: collectiveCount(rng)}
		}
		events = append(events, cluster.FaultEvent{Kind: kind, Logical: victims[0], Trigger: trig})

	case shape < 85:
		// A compound schedule: the shapes the recovery epoch state
		// machine exists for.
		switch c := rng.Intn(9); c {
		case 0, 2:
			// A second rank dies while the first victim's recovery is in
			// flight (kill during another rank's restore). One schedule
			// under two shape names, both frozen in corpus and episode
			// logs; the second dates from a deleted group-repair mode.
			ep.Shape = "compound/kill-during-recovery"
			if c == 2 {
				ep.Shape = "compound/kill-during-localized-repair"
			}
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: safeIter(rng, cp)}},
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[1],
					Trigger: cluster.Trigger{Kind: cluster.DuringRecovery, Epoch: 1}})
		case 1:
			// Two deaths in one epoch: simultaneous kills, one
			// acknowledgment round covering both.
			ep.Shape = "compound/double-death"
			iter := safeIter(rng, cp)
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: iter}},
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[1],
					Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: iter}})
		case 3:
			// The second death targets a checkpoint-chain neighbor of the
			// first victim — the rescue's restore source — while the group
			// commit is waiting for it. Everyone must observe the fresher
			// notice and restart instead of stalling on the dead member.
			ep.Shape = "compound/kill-repair-set-member"
			victim := victims[0]
			spoke := chainNeighbor(victim, ep.Workers, rng)
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victim,
					Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: safeIter(rng, cp)}},
				cluster.FaultEvent{Kind: kill(rng), Logical: spoke,
					Trigger: cluster.Trigger{Kind: cluster.DuringRecovery, Epoch: 1}})
		case 4:
			// A death racing the background flush plus a death at a
			// collective's entry — the flusher and the fault-aware
			// collective path failing in the same run.
			ep.Shape = "compound/flush-racing-collective"
			ep.Spec.Async = true
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.DuringFlush, Version: flushVersion(rng, cp)}},
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[1],
					Trigger: cluster.Trigger{Kind: cluster.DuringCollective, Count: collectiveCount(rng)}})
		case 5:
			// Kill a shadowed primary mid-interval: the canonical hot-
			// shadow failover. The oracle stays outcome-blind to the
			// route — a torn mirror legally falls back to the checkpoint
			// ladder — but either way the run must recover.
			ep.Shape = "compound/kill-shadowed-primary"
			ep.Spec.Async = true
			ep.Spec.Replication = victims[0] + 1
			ep.Spec.Spares = victims[0] + 1
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: safeIter(rng, cp)}})
		case 6:
			// Kill the shadow itself mid-mirror-apply: the primary keeps
			// computing, retires its mirror encoder once the notice marks
			// the shadow dead, and the episode must still complete — a
			// dead shadow only shrinks the spare pool.
			ep.Shape = "compound/kill-the-shadow"
			ep.Spec.Async = true
			ep.Spec.Replication = victims[0] + 1
			ep.Spec.Spares = victims[0] + 1
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.DuringShadowApply, Version: safeIter(rng, cp)}})
		case 7:
			// Primary and its shadow die in the same checkpoint interval:
			// the shadow is consumed mid-mirror just as the primary falls,
			// so the repair must route around the dead shadow to a plain
			// spare and the checkpoint ladder.
			ep.Shape = "compound/kill-primary-and-shadow-same-interval"
			ep.Spec.Async = true
			ep.Spec.Replication = victims[0] + 1
			ep.Spec.Spares = victims[0] + 2
			iter := safeIter(rng, cp)
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.DuringShadowApply, Version: iter}},
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: iter}})
		default:
			// A second worker dies while the first victim's shadow
			// takeover is in flight — kill-during-recovery with the
			// recovery being the zero-restore failover epoch.
			ep.Shape = "compound/kill-during-failover"
			ep.Spec.Async = true
			ep.Spec.Replication = victims[0] + 1
			ep.Spec.Spares = victims[0] + 1
			if ep.Spec.Spares < 3 {
				ep.Spec.Spares = 3
			}
			events = append(events,
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[0],
					Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: safeIter(rng, cp)}},
				cluster.FaultEvent{Kind: kill(rng), Logical: victims[1],
					Trigger: cluster.Trigger{Kind: cluster.DuringRecovery, Epoch: 1}})
		}

	default:
		// Spare exhaustion: spares+2 simultaneous kills — restriction 1,
		// must abort crisply, never hang. Simultaneous placement
		// guarantees every trigger fires before the abort can stall the
		// survivors.
		ep.Shape = "exhaustion"
		ep.Spec.Spares = 1 + rng.Intn(ep.Workers-3)
		iter := safeIter(rng, cp)
		for i := 0; i < ep.Spec.Spares+2; i++ {
			events = append(events, cluster.FaultEvent{Kind: kill(rng), Logical: victims[i],
				Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: iter}})
		}
	}

	if ep.Spec.Spares == 0 {
		// Recovered shapes: one spare headroom over the fault count.
		ep.Spec.Spares = len(events) + 1
	}
	// The async engine is orthogonal to the schedule: flip it randomly
	// where not already forced.
	if !ep.Spec.Async && rng.Intn(3) == 0 {
		ep.Spec.Async = true
	}
	// A discarded draw, where the removed delta-cadence knob drew: without
	// it every later draw shifts and Generate(seed) stops reproducing the
	// frozen corpus.
	_ = rng.Intn(3)
	// Two or more store-destroying faults can wipe a rank's state AND its
	// replicas: only the PFS fallback restores then.
	destructive := 0
	for _, e := range events {
		if e.Kind == cluster.NodeDown || e.Kind == cluster.NetworkDrop {
			destructive++
		}
	}
	if destructive >= 2 {
		ep.Spec.PFSEvery = 1
	}

	ep.Spec.Scenario = cluster.Scenario{
		Name:   fmt.Sprintf("chaos seed %d (%s)", seed, ep.Shape),
		Events: events,
	}
	workerKills, shadowKills := splitKills(events)
	ep.Spec.Expect, _ = OracleExpect(workerKills, shadowKills, ep.Spec.Spares)
	return ep
}

// chainNeighbor picks one of a victim's checkpoint-chain neighbors
// (victim±1 mod workers, the ft-layer repair-set spokes the hub waits
// for), excluding logical 0 — the never-killed collector rank every
// episode keeps alive.
func chainNeighbor(victim, workers int, rng *rand.Rand) int {
	prev, next := (victim-1+workers)%workers, (victim+1)%workers
	switch {
	case prev == 0:
		return next
	case next == 0:
		return prev
	case rng.Intn(2) == 0:
		return prev
	default:
		return next
	}
}

// safeIter picks a fault iteration mid-checkpoint-interval, away from
// the boundaries where the victim's last act would be a storage write
// and away from the final iterations where recovery could not complete
// a single further interval.
func safeIter(rng *rand.Rand, cp int64) int64 {
	k := int64(rng.Intn(int((epIters - 6) / cp)))
	return k*cp + 2 + int64(rng.Intn(int(cp)-3))
}

// flushVersion picks a during-flush version threshold such that a flush
// at or beyond it is guaranteed to happen: versions are checkpoint
// iterations (multiples of cp), and the threshold stays at least two
// intervals from the end.
func flushVersion(rng *rand.Rand, cp int64) int64 {
	k := 1 + int64(rng.Intn(int(epIters/cp)-2))
	return k*cp + int64(rng.Intn(int(cp)))
}

// collectiveCount picks a during-collective ordinal threshold in [4, 39].
// A Lanczos iteration makes one collective call (its one reduction) and
// set-up adds its own before the first, so ordinal 39 is still reached
// within a 40-iteration episode and the trigger always fires. The draw
// stays as it is so that the frozen corpus replays byte-identically.
func collectiveCount(rng *rand.Rand) int64 {
	return 4 + int64(rng.Intn(epIters-4))
}

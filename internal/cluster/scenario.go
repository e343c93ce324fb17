package cluster

// This file is the scenario engine: a declarative schedule of typed fault
// events injected into a running cluster. The paper validates recovery
// with hand-placed single faults (exit(-1) at an iteration, one kill -9);
// the scenario engine generalizes that methodology so compound cases —
// simultaneous multi-rank failures, a failure racing the checkpoint
// flusher, a second failure while a recovery epoch is in flight,
// whole-node loss — are expressed as data and exercised systematically.
//
// The cluster sits below the fault-tolerance stack, so it cannot see
// iterations, checkpoint flushes or recovery epochs itself. The framework
// reports those through the Injector's Note* hooks; the injector matches
// them against the armed triggers and fires the corresponding faults
// through the cluster's fault-injection primitives.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gaspi"
)

// FaultKind is the type of an injected fault, matching the paper's four
// validated failure modes (Section V.B).
type FaultKind int

// Fault kinds.
const (
	// ProcExit: the victim calls exit(-1) itself (the paper's
	// deterministic in-program injection).
	ProcExit FaultKind = iota
	// ProcKill: the victim is terminated externally (kill -9).
	ProcKill
	// NetworkDrop: the victim's node loses its data-plane network while
	// the process stays alive — the paper's "physically introduced
	// network failure". The FD detects the unreachable rank and enforces
	// its death over the management plane.
	NetworkDrop
	// NodeDown: the victim's whole node fails — every hosted rank dies
	// and the node-local store (including checkpoint replicas stored
	// there) is wiped.
	NodeDown
)

func (k FaultKind) String() string {
	switch k {
	case ProcExit:
		return "proc-exit"
	case ProcKill:
		return "proc-kill"
	case NetworkDrop:
		return "network-drop"
	case NodeDown:
		return "node-down"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// TriggerKind selects when a fault fires.
type TriggerKind int

// Trigger kinds.
const (
	// AtIteration fires when the victim logical rank starts iteration
	// Trigger.Iter (or the first iteration at or beyond it).
	AtIteration TriggerKind = iota
	// DuringFlush fires when a background checkpoint flush of the victim
	// logical rank's state, version Trigger.Version or newer, begins —
	// the fault races the in-flight replication.
	DuringFlush
	// DuringRecovery fires when the victim logical rank enters recovery
	// epoch Trigger.Epoch or later (its recovery machine reports an
	// epoch-entry transition) — a second failure while recovery is in
	// flight.
	DuringRecovery
	// DuringCollective fires when the victim logical rank begins its
	// Trigger.Count-th collective call (barrier/allreduce) or a later one
	// — the victim dies at the collective's entry, so its partners are
	// mid-collective when the death lands. This is the fault placement
	// that exercises the fault-aware collective path (prompt
	// ErrConnBroken instead of a hung round).
	DuringCollective
	// DuringShadowApply fires when the HOT SHADOW of the victim logical
	// rank applies a mirror frame of version Trigger.Version or newer —
	// the fault lands on the shadow itself, mid-mirror, so a subsequent
	// primary death finds its shadow consumed. Event.Logical names the
	// shadowed primary; the reporting rank (the shadow) is what gets hit.
	DuringShadowApply
)

func (k TriggerKind) String() string {
	switch k {
	case AtIteration:
		return "at-iteration"
	case DuringFlush:
		return "during-flush"
	case DuringRecovery:
		return "during-recovery"
	case DuringCollective:
		return "during-collective"
	case DuringShadowApply:
		return "during-shadow-apply"
	default:
		return fmt.Sprintf("trigger(%d)", int(k))
	}
}

// Trigger is the firing condition of a fault event.
type Trigger struct {
	// Kind selects which condition arms the event.
	Kind TriggerKind
	// Iter is the iteration threshold for AtIteration.
	Iter int64
	// Version is the checkpoint version threshold for DuringFlush.
	Version int64
	// Epoch is the recovery epoch for DuringRecovery.
	Epoch uint64
	// Count is the collective-call ordinal threshold for DuringCollective.
	Count int64
}

func (t Trigger) String() string {
	switch t.Kind {
	case AtIteration:
		return fmt.Sprintf("at-iteration %d", t.Iter)
	case DuringFlush:
		return fmt.Sprintf("during-flush v>=%d", t.Version)
	case DuringRecovery:
		return fmt.Sprintf("during-recovery-epoch %d", t.Epoch)
	case DuringCollective:
		return fmt.Sprintf("during-collective %d", t.Count)
	case DuringShadowApply:
		return fmt.Sprintf("during-shadow-apply v>=%d", t.Version)
	default:
		return t.Kind.String()
	}
}

// FaultEvent is one scheduled fault: a kind, a victim logical rank, and
// the trigger that fires it. Victims are addressed by LOGICAL rank — the
// identity the application computes under — because the hooks report the
// physical rank currently holding it, which is what gets hit. Targeting
// a logical rank after its identity moved to a rescue therefore hits the
// rescue, exactly like re-injecting a fault into a recovered application.
type FaultEvent struct {
	Kind    FaultKind
	Logical int
	Trigger Trigger
}

func (e FaultEvent) String() string {
	return fmt.Sprintf("%v logical %d %v", e.Kind, e.Logical, e.Trigger)
}

// ExitAt is the paper's deterministic injection ("processes are killed
// using exit(-1) at a specific iteration"): logical rank `logical` calls
// exit(-1) as it starts iteration iter. The event fires once, so a rescue
// that recomputes iteration iter is not killed again.
func ExitAt(iter int64, logical int) FaultEvent {
	return FaultEvent{Kind: ProcExit, Logical: logical, Trigger: Trigger{Kind: AtIteration, Iter: iter}}
}

// Scenario is a named schedule of fault events. Each event fires at most
// once.
type Scenario struct {
	Name   string
	Events []FaultEvent
}

// FiredFault records one fired event for post-run classification.
type FiredFault struct {
	Event FaultEvent
	// Rank is the physical rank that was hit.
	Rank gaspi.Rank
	// Node is the node that was hit (NodeDown, NetworkDrop) or hosting
	// the rank.
	Node int
	At   time.Time
}

// Injector arms a Scenario against a Cluster. The framework calls the
// Note* hooks from the affected processes; the injector fires matching
// events through the cluster's fault-injection primitives. All methods
// are safe for concurrent use.
type Injector struct {
	c *Cluster

	mu      sync.Mutex
	pending []FaultEvent
	fired   []FiredFault
}

// NewInjector arms scenario sc against cluster c.
func NewInjector(c *Cluster, sc *Scenario) *Injector {
	inj := &Injector{c: c}
	if sc != nil {
		inj.pending = append(inj.pending, sc.Events...)
	}
	return inj
}

// Fired returns the events fired so far.
func (inj *Injector) Fired() []FiredFault {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]FiredFault(nil), inj.fired...)
}

// Pending returns the events whose trigger has not matched yet. A
// non-empty pending list after a completed run means the scenario never
// reached the triggering condition — a specification bug the matrix
// runner surfaces rather than silently under-testing. Nil on a cluster
// without a scenario.
func (inj *Injector) Pending() []FaultEvent {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]FaultEvent(nil), inj.pending...)
}

// FiredVictims returns the physical ranks hit by fired events, including
// every rank of a downed node. Nil on a cluster without a scenario.
func (inj *Injector) FiredVictims() map[gaspi.Rank]bool {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[gaspi.Rank]bool)
	for _, f := range inj.fired {
		if f.Event.Kind == NodeDown {
			for _, r := range inj.c.RanksOf(f.Node) {
				out[r] = true
			}
			continue
		}
		out[f.Rank] = true
	}
	return out
}

// take removes and returns the pending events matched by keep.
func (inj *Injector) take(match func(FaultEvent) bool) []FaultEvent {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var taken []FaultEvent
	rest := inj.pending[:0]
	for _, e := range inj.pending {
		if match(e) {
			taken = append(taken, e)
		} else {
			rest = append(rest, e)
		}
	}
	inj.pending = rest
	return taken
}

// fire executes a matched event against the reporting physical rank.
// exitNow reports whether the CALLER must terminate itself (ProcExit
// matched at an iteration boundary, where the victim's own goroutine is
// the caller and can run exit(-1)). ProcExit matched by a BACKGROUND
// hook (flush, recovery transition) degrades to an external kill: the
// injector cannot execute the exit on the victim's behalf, and at those
// moments the two are the same abrupt death. External faults (kill,
// node, network) are applied synchronously: a self-targeted kill marks
// the reporting process dead immediately, and it unwinds at its next
// communication call — the same way a real kill -9 lands mid-compute.
func (inj *Injector) fire(e FaultEvent, rank gaspi.Rank, background bool) (exitNow bool) {
	node := inj.c.NodeOf(rank)
	inj.mu.Lock()
	inj.fired = append(inj.fired, FiredFault{Event: e, Rank: rank, Node: node, At: time.Now()})
	inj.mu.Unlock()
	switch e.Kind {
	case ProcExit:
		if background {
			inj.c.KillProc(rank)
			return false
		}
		return true
	case ProcKill:
		inj.c.KillProc(rank)
	case NetworkDrop:
		inj.c.PartitionNode(node, true)
	case NodeDown:
		inj.c.KillNode(node)
	}
	return false
}

// NoteIteration is the framework's per-iteration hook: the worker holding
// logical rank `logical` on physical rank `rank` is about to execute
// iteration `iter`. It returns true when the caller must exit(-1) now.
func (inj *Injector) NoteIteration(rank gaspi.Rank, logical int, iter int64) (exitNow bool) {
	if inj == nil {
		return false
	}
	for _, e := range inj.take(func(e FaultEvent) bool {
		return e.Trigger.Kind == AtIteration && e.Logical == logical && iter >= e.Trigger.Iter
	}) {
		if inj.fire(e, rank, false) {
			exitNow = true
		}
	}
	return exitNow
}

// NoteCollective is the fault-tolerance layer's hook: the worker holding
// logical rank `logical` on physical rank `rank` is entering its
// `count`-th collective call. Like NoteIteration it runs on the victim's
// own goroutine, so a matched ProcExit returns exitNow and external kills
// land synchronously — the victim's partners are inside the same
// collective when the death becomes visible.
func (inj *Injector) NoteCollective(rank gaspi.Rank, logical int, count int64) (exitNow bool) {
	if inj == nil {
		return false
	}
	for _, e := range inj.take(func(e FaultEvent) bool {
		return e.Trigger.Kind == DuringCollective && e.Logical == logical && count >= e.Trigger.Count
	}) {
		if inj.fire(e, rank, false) {
			exitNow = true
		}
	}
	return exitNow
}

// NoteFlush is the checkpoint library's hook: a background flush of
// logical rank `logical`'s checkpoint version `version` just began on
// physical rank `rank`.
func (inj *Injector) NoteFlush(rank gaspi.Rank, logical int, version int64) {
	if inj == nil {
		return
	}
	for _, e := range inj.take(func(e FaultEvent) bool {
		return e.Trigger.Kind == DuringFlush && e.Logical == logical && version >= e.Trigger.Version
	}) {
		inj.fire(e, rank, true)
	}
}

// NoteShadowFrame is the hot shadow's hook: the shadow of logical rank
// `logical`, running on physical rank `rank`, just applied a mirror frame
// of version `version`. Like NoteFlush it is a background hook — the
// apply loop runs on the checkpoint-stream serve goroutine — so a matched
// ProcExit degrades to an external kill of the reporting rank: the shadow
// dies mid-mirror while its primary keeps computing.
func (inj *Injector) NoteShadowFrame(rank gaspi.Rank, logical int, version int64) {
	if inj == nil {
		return
	}
	for _, e := range inj.take(func(e FaultEvent) bool {
		return e.Trigger.Kind == DuringShadowApply && e.Logical == logical && version >= e.Trigger.Version
	}) {
		inj.fire(e, rank, true)
	}
}

// NoteRecovery is the recovery state machine's hook: the worker holding
// logical rank `logical` on physical rank `rank` reported a transition
// of recovery epoch `epoch`. epochEntry is true for transitions that
// ENTER the epoch (acknowledgment, start of group rebuild) — the caller
// classifies, since the cluster layer cannot name ft's states — and only
// those arm during-recovery triggers. The epoch comparison is at-or-
// beyond, like the other trigger kinds: a victim whose board view races
// ahead can enter a later epoch without ever reporting the targeted one,
// and the event must still fire while recovery is in flight.
func (inj *Injector) NoteRecovery(rank gaspi.Rank, logical int, epoch uint64, epochEntry bool) {
	if inj == nil || !epochEntry {
		return
	}
	for _, e := range inj.take(func(e FaultEvent) bool {
		return e.Trigger.Kind == DuringRecovery && e.Logical == logical && epoch >= e.Trigger.Epoch
	}) {
		inj.fire(e, rank, true)
	}
}

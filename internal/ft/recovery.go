package ft

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// This file defines the recovery epoch state machine — the explicit
// formulation of the paper's recovery protocol that used to be spread
// implicitly across the detector loop, the worker's acknowledgment checks
// and the framework's control flow. Every fault-tolerance participant
// (worker, detector, rescue) owns a RecoveryMachine and is reduced to a
// driver of its transitions:
//
//	            Ack(notice)                 BeginRebuild
//	  Healthy ──────────────▶ Acked ───────────────────▶ GroupRebuild
//	     ▲                      │ ▲                           │   ▲
//	     │                      │ └───── Ack(newer) ──────────┘   │
//	     │               Resume │        (epoch restart,          │
//	     │        (no rebuild:  │         also from Restore)      │
//	     │         FD / spare-  │                                 │
//	     │         only death)  │                    BeginRestore │
//	     │                      ▼                                 ▼
//	  Healthy ◀──── Resume ◀─ Resume ◀──────── Resume ◀──────  Restore
//
// The states carry the paper's phase semantics: Acked is the interval
// between receiving the FD's failure acknowledgment and starting group
// reconstruction (suspect enforcement, queue purge); GroupRebuild is the
// paper's OHF2 (group delete/create/commit); Restore is OHF3 (data
// re-initialization from the agreed checkpoint). A further failure
// acknowledged while an epoch is in flight re-enters Acked with the newer
// notice — the compound-fault path — and is counted as an epoch restart.
// Resume is the transient exit state: the machine passes through it back
// to Healthy, so observers see the completed epoch.

// RecoveryState is one state of the recovery epoch machine.
type RecoveryState int

// Recovery states.
const (
	// StateHealthy: no failure pending; normal computation.
	StateHealthy RecoveryState = iota
	// StateAcked: a failure acknowledgment was received; application
	// communication has stopped, recovery has not yet rebuilt the group.
	StateAcked
	// StateGroupRebuild: the worker group is being deleted, recreated and
	// committed (the paper's OHF2).
	StateGroupRebuild
	// StateRestore: data re-initialization (the paper's OHF3) from the
	// state the group agrees on: the members' live state, with the live
	// mirror of every hot shadow that took over its own primary, or the
	// last globally agreed checkpoint.
	StateRestore
	// StateResume: the epoch completed; the machine passes through this
	// state back to Healthy.
	StateResume
)

func (s RecoveryState) String() string {
	switch s {
	case StateHealthy:
		return "Healthy"
	case StateAcked:
		return "Acked"
	case StateGroupRebuild:
		return "GroupRebuild"
	case StateRestore:
		return "Restore"
	case StateResume:
		return "Resume"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Transition is one observed state change of a RecoveryMachine.
type Transition struct {
	// From and To are the machine states around the transition.
	From, To RecoveryState
	// Epoch is the recovery epoch being processed (the notice's epoch; 0
	// before any failure).
	Epoch uint64
	// At is when the transition happened.
	At time.Time
}

// Trace counter names the machine maintains (per phase, accumulated
// nanoseconds across epochs, plus epoch accounting). ftlanczos -mode scenarios
// reports them to show where recovery time goes.
const (
	// CounterDetectNS is time between a worker first stalling on a
	// failure and receiving the FD's acknowledgment (OHF1) — recorded by
	// Worker.retry, listed here with the other phases so the time-to-
	// recover breakdown (detect → ack → rebuild → restore) reads from one
	// counter family.
	CounterDetectNS = trace.KFTPhaseDetectNS
	// CounterAckNS is time spent in Acked: from acknowledgment to the
	// start of group reconstruction (suspect kills, queue purge).
	CounterAckNS = trace.KFTPhaseAckNS
	// CounterRebuildNS is time spent in GroupRebuild (OHF2).
	CounterRebuildNS = trace.KFTPhaseRebuildNS
	// CounterRestoreNS is time spent in Restore (OHF3).
	CounterRestoreNS = trace.KFTPhaseRestoreNS
	// CounterEpochs counts completed recovery epochs (Resume reached).
	CounterEpochs = trace.KFTEpochs
	// CounterEpochRestarts counts epochs restarted by a further failure
	// acknowledged while recovery was in flight (the compound-fault path).
	CounterEpochRestarts = trace.KFTEpochRestarts
	// CounterEpochRegressions counts acknowledgments carrying an epoch
	// STRICTLY OLDER than one this machine already processed. The board
	// protocol makes notices monotone, so this must stay zero on every
	// rank in every run — the chaos fuzzer's episode-level invariant. (A
	// re-acknowledgment of the current epoch is normal and not counted:
	// drivers read the board without consuming.)
	CounterEpochRegressions = trace.KFTEpochRegressions
)

// RecoveryMachine is the shared recovery epoch state machine. All methods
// are safe for concurrent use; the observer is invoked outside the lock.
type RecoveryMachine struct {
	mu       sync.Mutex
	state    RecoveryState
	epoch    uint64 // epoch of the notice being (or last) processed
	notice   *Notice
	entered  time.Time
	rec      *trace.Recorder
	log      []Transition
	observer func(Transition)
}

// NewRecoveryMachine returns a machine in StateHealthy recording its phase
// durations into rec (nil-safe).
func NewRecoveryMachine(rec *trace.Recorder) *RecoveryMachine {
	return &RecoveryMachine{state: StateHealthy, entered: time.Now(), rec: rec}
}

// State returns the current state.
func (m *RecoveryMachine) State() RecoveryState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Epoch returns the epoch of the notice being (or last) processed.
func (m *RecoveryMachine) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Notice returns the notice driving the current (or last) epoch.
func (m *RecoveryMachine) Notice() *Notice {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.notice
}

// SetObserver installs a transition observer (the scenario engine's
// during-recovery trigger hook). It is called after every transition,
// outside the machine lock, on the driving goroutine.
func (m *RecoveryMachine) SetObserver(fn func(Transition)) {
	m.mu.Lock()
	m.observer = fn
	m.mu.Unlock()
}

// Transitions returns a copy of the transition log.
func (m *RecoveryMachine) Transitions() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Transition(nil), m.log...)
}

// phaseCounter maps a state being left to the counter charged for the
// time spent in it; states outside an epoch charge nothing.
func phaseCounter(s RecoveryState) string {
	switch s {
	case StateAcked:
		return CounterAckNS
	case StateGroupRebuild:
		return CounterRebuildNS
	case StateRestore:
		return CounterRestoreNS
	default:
		return ""
	}
}

// move performs a transition under the lock and returns it for observer
// dispatch; the caller must hold m.mu.
func (m *RecoveryMachine) move(to RecoveryState) Transition {
	now := time.Now()
	if c := phaseCounter(m.state); c != "" {
		m.rec.Inc(c, int64(now.Sub(m.entered))) //ftlint:ignore tracekey: phaseCounter dispatches over the registry-constant phase family
	}
	tr := Transition{From: m.state, To: to, Epoch: m.epoch, At: now}
	m.state = to
	m.entered = now
	m.log = append(m.log, tr)
	return tr
}

// notify dispatches transitions to the observer outside the lock.
func (m *RecoveryMachine) notify(obs func(Transition), trs ...Transition) {
	if obs == nil {
		return
	}
	for _, tr := range trs {
		obs(tr)
	}
}

// Ack records a failure acknowledgment. Legal from Healthy (a fresh
// failure) and — with a strictly newer epoch — from Acked, GroupRebuild
// and Restore: the compound-fault path where a further failure interrupts
// an in-flight recovery and restarts the epoch with the fresher notice.
// Re-acknowledging an already-seen epoch is a harmless no-op (the board
// is read without consuming, so drivers legitimately see a notice twice).
func (m *RecoveryMachine) Ack(n *Notice) error {
	m.mu.Lock()
	if n.Epoch <= m.epoch {
		if n.Epoch < m.epoch {
			m.rec.Inc(CounterEpochRegressions, 1)
		}
		m.mu.Unlock()
		return nil
	}
	switch m.state {
	case StateGroupRebuild, StateRestore:
		m.rec.Inc(CounterEpochRestarts, 1)
	case StateHealthy, StateAcked:
		// Fresh failure, or a newer notice superseding a pending one.
	default: // StateResume is transient; reaching here is a driver bug.
		defer m.mu.Unlock()
		return fmt.Errorf("ft: recovery ack in transient state %v", m.state)
	}
	m.epoch = n.Epoch
	m.notice = n
	tr := m.move(StateAcked)
	obs := m.observer
	m.mu.Unlock()
	m.notify(obs, tr)
	return nil
}

// BeginRebuild enters group reconstruction (OHF2). Legal only from Acked.
func (m *RecoveryMachine) BeginRebuild() error {
	return m.step(StateAcked, StateGroupRebuild)
}

// BeginRestore enters data re-initialization (OHF3). Legal only from
// GroupRebuild.
func (m *RecoveryMachine) BeginRestore() error {
	return m.step(StateGroupRebuild, StateRestore)
}

// Resume completes the epoch: from Restore (the worker path) or directly
// from Acked (participants with nothing to rebuild: the FD after
// broadcasting the acknowledgment, a worker absorbing a spare-only death).
// The machine passes through Resume back to Healthy.
func (m *RecoveryMachine) Resume() error {
	m.mu.Lock()
	if m.state != StateRestore && m.state != StateAcked {
		defer m.mu.Unlock()
		return fmt.Errorf("ft: recovery resume from %v", m.state)
	}
	tr1 := m.move(StateResume)
	tr2 := m.move(StateHealthy)
	m.rec.Inc(CounterEpochs, 1)
	obs := m.observer
	m.mu.Unlock()
	m.notify(obs, tr1, tr2)
	return nil
}

func (m *RecoveryMachine) step(from, to RecoveryState) error {
	m.mu.Lock()
	if m.state != from {
		defer m.mu.Unlock()
		return fmt.Errorf("ft: recovery transition to %v from %v (want %v)", to, m.state, from)
	}
	tr := m.move(to)
	obs := m.observer
	m.mu.Unlock()
	m.notify(obs, tr)
	return nil
}

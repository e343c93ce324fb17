package ft

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func testNotice(epoch uint64) *Notice {
	return &Notice{Epoch: epoch, WorkerFailed: true}
}

func TestRecoveryMachineHappyPath(t *testing.T) {
	rec := trace.NewRecorder()
	m := NewRecoveryMachine(rec)
	if m.State() != StateHealthy {
		t.Fatalf("initial state %v", m.State())
	}
	if err := m.Ack(testNotice(1)); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateAcked || m.Epoch() != 1 {
		t.Fatalf("after ack: %v epoch %d", m.State(), m.Epoch())
	}
	if err := m.BeginRebuild(); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginRestore(); err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateHealthy {
		t.Fatalf("after resume: %v", m.State())
	}
	if rec.Counter(CounterEpochs) != 1 {
		t.Fatalf("epochs = %d", rec.Counter(CounterEpochs))
	}
	if rec.Counter(CounterEpochRestarts) != 0 {
		t.Fatalf("restarts = %d", rec.Counter(CounterEpochRestarts))
	}
	// Every phase was visited, so every phase counter accumulated time.
	for _, c := range []string{CounterAckNS, CounterRebuildNS, CounterRestoreNS} {
		if rec.Counter(c) <= 0 {
			t.Fatalf("phase counter %s = %d", c, rec.Counter(c))
		}
	}
	// Transition log: Healthy→Acked→GroupRebuild→Restore→Resume→Healthy.
	want := []RecoveryState{StateAcked, StateGroupRebuild, StateRestore, StateResume, StateHealthy}
	trs := m.Transitions()
	if len(trs) != len(want) {
		t.Fatalf("transitions: %v", trs)
	}
	for i, tr := range trs {
		if tr.To != want[i] {
			t.Fatalf("transition %d: %v→%v, want to %v", i, tr.From, tr.To, want[i])
		}
	}
}

func TestRecoveryMachineCompoundRestart(t *testing.T) {
	rec := trace.NewRecorder()
	m := NewRecoveryMachine(rec)
	if err := m.Ack(testNotice(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginRebuild(); err != nil {
		t.Fatal(err)
	}
	// A further failure while rebuilding: epoch restarts with the newer
	// notice.
	if err := m.Ack(testNotice(2)); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateAcked || m.Epoch() != 2 {
		t.Fatalf("after compound ack: %v epoch %d", m.State(), m.Epoch())
	}
	if err := m.BeginRebuild(); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginRestore(); err != nil {
		t.Fatal(err)
	}
	// And once more from Restore (failure during data re-initialization).
	if err := m.Ack(testNotice(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginRebuild(); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginRestore(); err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(CounterEpochRestarts); got != 2 {
		t.Fatalf("restarts = %d, want 2", got)
	}
	if got := rec.Counter(CounterEpochs); got != 1 {
		t.Fatalf("completed epochs = %d, want 1", got)
	}
}

func TestRecoveryMachineStaleAckIsNoop(t *testing.T) {
	m := NewRecoveryMachine(nil)
	if err := m.Ack(testNotice(2)); err != nil {
		t.Fatal(err)
	}
	// Re-delivery of the pending epoch and of an older one: no-ops.
	if err := m.Ack(testNotice(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Ack(testNotice(1)); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateAcked || m.Epoch() != 2 {
		t.Fatalf("state %v epoch %d", m.State(), m.Epoch())
	}
	if got := len(m.Transitions()); got != 1 {
		t.Fatalf("transitions = %d, want 1", got)
	}
}

// TestRecoveryMachineIllegalTransitions pins the whole transition relation of
// the paper's five states: from every state a driver can rest in (Resume is
// transient), which forward steps are legal — BeginRestore from GroupRebuild
// ONLY — and that a newer acknowledgment counts a restart exactly when an
// epoch is in flight.
func TestRecoveryMachineIllegalTransitions(t *testing.T) {
	if got := (StateResume + 1).String(); got != "state(5)" {
		t.Fatalf("a sixth recovery state exists: %s", got)
	}
	type step = func(*RecoveryMachine) error
	ack1 := func(m *RecoveryMachine) error { return m.Ack(testNotice(1)) }
	ops := []struct {
		name string
		do   step
		to   RecoveryState
	}{
		{"BeginRebuild", (*RecoveryMachine).BeginRebuild, StateGroupRebuild},
		{"BeginRestore", (*RecoveryMachine).BeginRestore, StateRestore},
		{"Resume", (*RecoveryMachine).Resume, StateHealthy},
	}
	for _, tc := range []struct {
		state    RecoveryState
		reach    []step
		legal    string // names of the legal forward steps
		restarts int64  // what a newer Ack counts
	}{
		{StateHealthy, nil, "", 0},
		{StateAcked, []step{ack1}, "BeginRebuild Resume", 0},
		{StateGroupRebuild, []step{ack1, ops[0].do}, "BeginRestore", 1},
		{StateRestore, []step{ack1, ops[0].do, ops[1].do}, "Resume", 1},
	} {
		drive := func() (*RecoveryMachine, *trace.Recorder) {
			rec := trace.NewRecorder()
			m := NewRecoveryMachine(rec)
			for _, s := range tc.reach {
				if err := s(m); err != nil {
					t.Fatal(err)
				}
			}
			if m.State() != tc.state {
				t.Fatalf("drove to %v, want %v", m.State(), tc.state)
			}
			return m, rec
		}
		for _, o := range ops {
			m, _ := drive()
			err := o.do(m)
			legal, want := strings.Contains(tc.legal, o.name), tc.state
			if legal {
				want = o.to // a refused step leaves the machine where it was
			}
			if (err == nil) != legal || m.State() != want {
				t.Errorf("%s from %v: err %v, state %v; legal %v, want state %v", o.name, tc.state, err, m.State(), legal, want)
			}
		}
		m, rec := drive()
		if err := m.Ack(testNotice(2)); err != nil || m.State() != StateAcked || m.Epoch() != 2 {
			t.Errorf("newer ack from %v: err %v, state %v, epoch %d", tc.state, err, m.State(), m.Epoch())
		}
		if got := rec.Counter(CounterEpochRestarts); got != tc.restarts {
			t.Errorf("newer ack from %v counted %d restarts, want %d", tc.state, got, tc.restarts)
		}
	}
}

func TestRecoveryMachineObserverAndFDPath(t *testing.T) {
	m := NewRecoveryMachine(nil)
	var seen []Transition
	m.SetObserver(func(tr Transition) { seen = append(seen, tr) })
	if err := m.Ack(testNotice(1)); err != nil {
		t.Fatal(err)
	}
	// The FD path: acknowledge, broadcast, resume — no rebuild/restore.
	if err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateHealthy {
		t.Fatalf("state %v", m.State())
	}
	if len(seen) != 3 { // →Acked, →Resume, →Healthy
		t.Fatalf("observer saw %v", seen)
	}
	if seen[0].To != StateAcked || seen[0].Epoch != 1 {
		t.Fatalf("first observed transition: %+v", seen[0])
	}
}

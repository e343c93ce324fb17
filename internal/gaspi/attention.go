package gaspi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// attention is the per-process attention line: one level the NIC raises
// when something lands that the application's blocked calls should look at
// — for the ft layer, the failure acknowledgment on the notice board. The
// paper's worker checks its board only after a blocking call returned
// GASPI_TIMEOUT, because that was the only return path GPI-2 gave it; here
// the timeout stays as the fallback and the line is the fast path: an
// armed wait that finds the line raised returns ErrAttention — an early
// ErrTimeout, resumable exactly like an expired one — so every existing
// "timeout → check the board" site becomes event-driven without a second
// code path.
//
// The line is level-triggered: it stays raised until AttentionClear, so a
// wait entered after the notification landed returns at once. It is
// observed only while armed. Arming is how the owner scopes it to the
// calls that know what to do with the early return; auxiliary goroutines
// of the same process (the checkpoint stream's flusher and applier) loop
// on ErrTimeout against a wall-clock deadline, and a line they cannot
// clear would turn those loops into spins.
type attention struct {
	raised atomic.Bool
	armed  atomic.Bool
	pulse  pulse
}

// raise sets the level and wakes every parked wait. Callers must not hold
// a segment's notifMu (the broadcast takes the pulse lock).
func (a *attention) raise() {
	a.raised.Store(true)
	a.pulse.Broadcast()
}

// pending reports whether an armed wait must return early.
//
//ftlint:hotpath
func (a *attention) pending() bool { return a.armed.Load() && a.raised.Load() }

// wake returns the channel a parked wait selects on beside its own pulse.
// Like pulse.Chan it must be taken BEFORE pending is checked, so a raise
// between the two is seen as a closed channel instead of being lost. The
// channel is handed out armed or not: a wait parked while the line was
// disarmed must still wake when another goroutine arms and raises it
// (CPStream.Stop does), and re-parks if pending says the wake was not for
// it.
func (a *attention) wake() <-chan struct{} { return a.pulse.Chan() }

// AttentionWatch registers the notification slot whose arrival raises this
// process's attention line (one slot per segment); a value already sitting
// in the slot raises it at once.
func (p *Proc) AttentionWatch(seg SegmentID, id NotificationID) error {
	p.checkAlive()
	s, err := p.segLookup(seg)
	if err != nil {
		return err
	}
	if id < 0 || int(id) >= len(s.notifVals) {
		return fmt.Errorf("%w: notification id %d", ErrInvalid, id)
	}
	s.notifMu.Lock()
	s.attn, s.attnSlot = &p.attn, id
	set := s.notifVals[id] != 0
	s.notifMu.Unlock()
	if set {
		p.attn.raise()
	}
	return nil
}

// AttentionArm switches observation of the line on or off for the blocking
// calls of this process. The owner arms it around the calls whose
// ErrTimeout it answers by looking at what raised the line. ft.Worker arms
// and disarms around every blocking call, so this is on the iteration's hot
// path: two atomic operations, a broadcast only if the line is up.
//
//ftlint:hotpath
func (p *Proc) AttentionArm(on bool) {
	p.attn.armed.Store(on)
	if on && p.attn.raised.Load() {
		p.attn.pulse.Broadcast() // waits parked while disarmed re-check
	}
}

// AttentionRaise raises the line locally — a goroutine asking the
// process's armed waits to return and re-read their state.
func (p *Proc) AttentionRaise() { p.attn.raise() }

// AttentionClear lowers the line. Call it BEFORE reading the state the
// line announces: a notification landing after the read then raises the
// line again instead of being swallowed.
func (p *Proc) AttentionClear() { p.attn.raised.Store(false) }

// AttentionWait blocks until the line is raised (true) or the timeout
// expires (false) — the pacing wait of a caller that has nothing to re-issue
// and only waits to be told. It observes the line whether or not it is
// armed.
func (p *Proc) AttentionWait(timeout time.Duration) bool {
	p.checkAlive()
	// Armed, waitCond may report the raise as ErrAttention instead of nil.
	err := p.waitCond(&p.attn.pulse, timeout, p.attn.raised.Load, nil)
	return err == nil || errors.Is(err, ErrAttention)
}

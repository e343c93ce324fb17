package gaspi

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fabric"
)

// Write posts a one-sided write of data into the remote rank's segment at
// the given offset (gaspi_write). The call returns as soon as the operation
// is posted on queue q; completion is observed with WaitQueue.
//
// Unlike the C API (which reads from a local segment), data is passed
// directly; the slice is copied at post time, so the caller may reuse it
// immediately. For the zero-copy discipline of the C API use WriteFrom.
func (p *Proc) Write(rank Rank, seg SegmentID, off int64, data []byte, q QueueID) error {
	return p.writeInternal(rank, seg, off, data, q, -1, 0, false)
}

// WriteNotify posts a one-sided write followed by a notification
// (gaspi_write_notify). The GASPI guarantee holds: the remote notification
// value becomes visible only after the written data is in place, because the
// fabric preserves per-pair FIFO order and the write is applied before the
// notification is set.
func (p *Proc) WriteNotify(rank Rank, seg SegmentID, off int64, data []byte, notifID NotificationID, notifVal int64, q QueueID) error {
	if notifVal == 0 {
		return fmt.Errorf("%w: notification value must be non-zero", ErrInvalid)
	}
	return p.writeInternal(rank, seg, off, data, q, int64(notifID), notifVal, false)
}

// WriteFrom is the zero-copy variant of Write, matching the C API's
// registered-buffer discipline: data is NOT copied at post time — the
// fabric reads it once, at delivery time, directly into the destination
// segment. In exchange the caller must keep data unmodified until the
// queue has been flushed successfully with WaitQueue (exactly the contract
// gaspi_write imposes on the local segment region). If WaitQueue reports
// an error or times out, the buffer may still be referenced by in-flight
// traffic and must be abandoned to the garbage collector, not reused.
func (p *Proc) WriteFrom(rank Rank, seg SegmentID, off int64, data []byte, q QueueID) error {
	return p.writeInternal(rank, seg, off, data, q, -1, 0, true)
}

// WriteNotifyFrom is the zero-copy variant of WriteNotify; see WriteFrom
// for the buffer-stability contract.
func (p *Proc) WriteNotifyFrom(rank Rank, seg SegmentID, off int64, data []byte, notifID NotificationID, notifVal int64, q QueueID) error {
	if notifVal == 0 {
		return fmt.Errorf("%w: notification value must be non-zero", ErrInvalid)
	}
	return p.writeInternal(rank, seg, off, data, q, int64(notifID), notifVal, true)
}

func (p *Proc) writeInternal(rank Rank, seg SegmentID, off int64, data []byte, q QueueID, notifID, notifVal int64, borrow bool) error {
	p.checkAlive()
	qu, err := p.queue(q)
	if err != nil {
		return err
	}
	if err := p.validRank(rank); err != nil {
		return err
	}
	payload := data
	if !borrow {
		payload = make([]byte, len(data))
		copy(payload, data)
	}
	tok := p.postQueued(kWrite, rank, qu)
	m := fabric.Message{
		Kind:    kWrite,
		Token:   tok,
		Args:    [4]int64{int64(seg), off, notifID + 1, notifVal},
		Payload: payload,
	}
	if err := p.ep.Send(rank, m); err != nil {
		p.completeToken(tok, opResult{err: ErrConnection})
		return nil // surfaces via WaitQueue, like a posted-then-failed op
	}
	return nil
}

// Notify posts a bare notification to the remote rank's segment slot
// (gaspi_notify). Completion is observed with WaitQueue.
func (p *Proc) Notify(rank Rank, seg SegmentID, notifID NotificationID, notifVal int64, q QueueID) error {
	p.checkAlive()
	if notifVal == 0 {
		return fmt.Errorf("%w: notification value must be non-zero", ErrInvalid)
	}
	qu, err := p.queue(q)
	if err != nil {
		return err
	}
	if err := p.validRank(rank); err != nil {
		return err
	}
	tok := p.postQueued(kNotify, rank, qu)
	m := fabric.Message{
		Kind:  kNotify,
		Token: tok,
		Args:  [4]int64{int64(seg), 0, int64(notifID) + 1, notifVal},
	}
	if err := p.ep.Send(rank, m); err != nil {
		p.completeToken(tok, opResult{err: ErrConnection})
	}
	return nil
}

// NotifyWaitsome blocks until one of the notification slots
// [begin, begin+num) of the local segment holds a non-zero value, returning
// the first such slot (gaspi_notify_waitsome). Like a real GPI-2 process it
// first polls the slots in user space (bounded), so a notification that
// arrives while the caller overlaps computation is picked up without any
// blocking machinery.
func (p *Proc) NotifyWaitsome(seg SegmentID, begin NotificationID, num int, timeout time.Duration) (NotificationID, error) {
	return p.NotifyWaitsomeFrom(seg, begin, num, nil, timeout)
}

// NotifyWaitsomeFrom is NotifyWaitsome for a wait that names its sources:
// from lists the ranks whose notifications the caller still lacks, and the
// wait fails with ErrConnection (joined with ErrReset when the death was
// witnessed) as soon as one of them is marked corrupt, instead of waiting
// out its timeout. A notification already in the range is returned first.
// The wait reads from only while it runs.
func (p *Proc) NotifyWaitsomeFrom(seg SegmentID, begin NotificationID, num int, from []Rank, timeout time.Duration) (NotificationID, error) {
	p.checkAlive()
	s, err := p.segLookup(seg)
	if err != nil {
		return 0, err
	}
	if begin < 0 || num <= 0 || int(begin)+num > len(s.notifVals) {
		return 0, fmt.Errorf("%w: notification range [%d,%d)", ErrInvalid, begin, int(begin)+num)
	}
	if id, ok := s.scanNotif(begin, num); ok {
		return id, nil
	}
	if timeout == Test {
		if err := p.checkSources(from); err != nil {
			return 0, err
		}
		return 0, ErrTimeout
	}
	for i, n := 0, p.cfg.SpinYields; i < n; i++ {
		runtime.Gosched()
		if id, ok := s.scanNotif(begin, num); ok {
			return id, nil
		}
	}
	var fired NotificationID
	err = p.waitCond(&s.notifPulse, timeout, func() bool {
		id, ok := s.scanNotif(begin, num)
		if ok {
			fired = id
		}
		return ok
	}, from)
	if err != nil {
		return 0, err
	}
	return fired, nil
}

// NotifyReset atomically reads and clears a notification slot, returning the
// old value (gaspi_notify_reset).
func (p *Proc) NotifyReset(seg SegmentID, id NotificationID) (int64, error) {
	p.checkAlive()
	s, err := p.segLookup(seg)
	if err != nil {
		return 0, err
	}
	s.notifMu.Lock()
	defer s.notifMu.Unlock()
	if id < 0 || int(id) >= len(s.notifVals) {
		return 0, fmt.Errorf("%w: notification id %d", ErrInvalid, id)
	}
	old := s.notifVals[id]
	s.notifVals[id] = 0
	return old, nil
}

// NotifyPeek reads a notification slot without clearing it. The worker-side
// failure-acknowledgment check uses it so the signal stays visible to every
// later check.
func (p *Proc) NotifyPeek(seg SegmentID, id NotificationID) (int64, error) {
	p.checkAlive()
	s, err := p.segLookup(seg)
	if err != nil {
		return 0, err
	}
	s.notifMu.Lock()
	defer s.notifMu.Unlock()
	if id < 0 || int(id) >= len(s.notifVals) {
		return 0, fmt.Errorf("%w: notification id %d", ErrInvalid, id)
	}
	return s.notifVals[id], nil
}

func (p *Proc) validRank(r Rank) error {
	if r < 0 || int(r) >= p.n {
		return fmt.Errorf("%w: rank %d out of range [0,%d)", ErrInvalid, r, p.n)
	}
	return nil
}

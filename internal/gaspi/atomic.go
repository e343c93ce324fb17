package gaspi

import (
	"encoding/binary"
	"time"

	"repro/internal/fabric"
)

// AtomicFetchAdd atomically adds delta to the 8-byte integer at (seg, off)
// on the remote rank and returns the value before the addition
// (gaspi_atomic_fetch_add). The operation is executed by the target's NIC
// under the segment lock, so it is atomic with respect to all other atomics
// and remote writes.
func (p *Proc) AtomicFetchAdd(rank Rank, seg SegmentID, off int64, delta int64, timeout time.Duration) (int64, error) {
	p.checkAlive()
	if err := p.validRank(rank); err != nil {
		return 0, err
	}
	tok, resp := p.postBlocking(kAtomic, rank)
	m := fabric.Message{
		Kind:  kAtomic,
		Token: tok,
		Args:  [4]int64{int64(seg), off, atomFetchAdd, delta},
	}
	if err := p.ep.Send(rank, m); err != nil {
		p.completeToken(tok, opResult{err: ErrConnection})
	}
	r, err := p.awaitResultVal(tok, resp, timeout)
	if err != nil {
		return 0, err
	}
	return r.val, nil
}

// AtomicCompareSwap atomically compares the 8-byte integer at (seg, off) on
// the remote rank with comparator and, if equal, replaces it with newVal.
// It returns the value found before the operation
// (gaspi_atomic_compare_swap).
func (p *Proc) AtomicCompareSwap(rank Rank, seg SegmentID, off int64, comparator, newVal int64, timeout time.Duration) (int64, error) {
	p.checkAlive()
	if err := p.validRank(rank); err != nil {
		return 0, err
	}
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, uint64(newVal))
	tok, resp := p.postBlocking(kAtomic, rank)
	m := fabric.Message{
		Kind:    kAtomic,
		Token:   tok,
		Args:    [4]int64{int64(seg), off, atomCompareSwap, comparator},
		Payload: payload,
	}
	if err := p.ep.Send(rank, m); err != nil {
		p.completeToken(tok, opResult{err: ErrConnection})
	}
	r, err := p.awaitResultVal(tok, resp, timeout)
	if err != nil {
		return 0, err
	}
	return r.val, nil
}

// applyAtomic executes an atomic request at the target. Returns the old
// value and a remote status code.
func (s *segment) applyAtomic(op, off, operand int64, payload []byte) (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off+8 > int64(s.size) {
		return 0, remOutOfBounds
	}
	s.back(off + 8)
	old := int64(binary.LittleEndian.Uint64(s.buf[off:]))
	switch op {
	case atomFetchAdd:
		binary.LittleEndian.PutUint64(s.buf[off:], uint64(old+operand))
	case atomCompareSwap:
		if old == operand && len(payload) == 8 {
			copy(s.buf[off:off+8], payload)
		}
	}
	return old, remOK
}

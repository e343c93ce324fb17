package gaspi

import (
	"fmt"
	"time"
)

// This file rounds out the GASPI API surface beyond what the paper's
// application strictly needs: user-defined allreduce (gaspi_allreduce_user),
// list writes (gaspi_write_list), and the small administrative queries.

// collUserOp tags user-allreduce rounds; it shares the round-key space with
// the built-in collectives but is a distinct kind, so a resumed collective
// of a different flavour is detected.
const collUser uint8 = 9

// ReduceFunc combines two equally sized operand vectors into the first
// (dst = f(dst, src)). Like gaspi_allreduce_user's reduction operation, it
// must be associative and commutative for the result to be well defined
// (the reduction tree applies it in rank-dependent order).
type ReduceFunc func(dst, src []float64)

// AllreduceUser performs an allreduce with a user-provided reduction
// (gaspi_allreduce_user). Timeout semantics follow the other collectives:
// a timed-out call is resumed by calling it again with identical
// arguments. The user reduction runs over the two-sided message rounds —
// an arbitrary ReduceFunc has no typed combine over the collective
// segment's view.
func (p *Proc) AllreduceUser(gid GroupID, in []float64, f ReduceFunc, timeout time.Duration) ([]float64, error) {
	p.checkAlive()
	if f == nil {
		return nil, fmt.Errorf("%w: nil reduction function", ErrInvalid)
	}
	g, st, _, err := p.startCollective(gid, collUser, len(in))
	if err != nil {
		return nil, err
	}
	seq := st.seq
	acc := make([]float64, len(in))
	copy(acc, in)
	n := len(g.members)
	myIdx := g.myIdx
	rounds := int32(collRounds(n))
	for k := rounds - 1; k >= 0; k-- {
		dist := 1 << k
		switch {
		case myIdx >= dist && myIdx < 2*dist:
			if err := p.collSend(gid, seq, k, collUser, g.members[myIdx-dist], encodeF64(acc)); err != nil {
				return nil, err
			}
		case myIdx < dist && myIdx+dist < n:
			b, err := p.collRecv(g, seq, k, collUser, g.members[myIdx+dist], timeout)
			if err != nil {
				return nil, err
			}
			other, err := decodeF64(b, len(acc))
			if err != nil {
				return nil, err
			}
			f(acc, other)
		}
	}
	for k := int32(0); k < rounds; k++ {
		dist := 1 << k
		switch {
		case myIdx < dist && myIdx+dist < n:
			if err := p.collSend(gid, seq, rounds+k, collUser, g.members[myIdx+dist], encodeF64(acc)); err != nil {
				return nil, err
			}
		case myIdx >= dist && myIdx < 2*dist:
			b, err := p.collRecv(g, seq, rounds+k, collUser, g.members[myIdx-dist], timeout)
			if err != nil {
				return nil, err
			}
			got, err := decodeF64(b, len(acc))
			if err != nil {
				return nil, err
			}
			copy(acc, got)
		}
	}
	p.finishCollective(gid, seq)
	return acc, nil
}

// WriteEntry is one element of a WriteList.
type WriteEntry struct {
	Seg  SegmentID
	Off  int64
	Data []byte
}

// WriteList posts several one-sided writes to the same rank in one call
// (gaspi_write_list); all are posted on the same queue and complete
// together at WaitQueue. The fabric's per-pair FIFO means a notification
// posted after the list orders after all of its writes, so
// WriteListNotify-style patterns compose from WriteList + Notify.
func (p *Proc) WriteList(rank Rank, entries []WriteEntry, q QueueID) error {
	p.checkAlive()
	for i := range entries {
		if err := p.Write(rank, entries[i].Seg, entries[i].Off, entries[i].Data, q); err != nil {
			return fmt.Errorf("write %d of %d: %w", i, len(entries), err)
		}
	}
	return nil
}

// --- administrative queries (gaspi_..._max and friends) ------------------------

// NotifySlots returns the number of notification slots per segment
// (gaspi_notification_num).
func (p *Proc) NotifySlots() int { return p.cfg.NotifySlots }

// MaxSegments returns the per-process segment limit (gaspi_segment_max).
func (p *Proc) MaxSegments() int { return p.cfg.MaxSegments }

// SegmentIDs lists the currently allocated local segments
// (gaspi_segment_list). Runtime-internal segments (negative IDs — the
// per-group collective segments) are not application-visible and are
// excluded.
func (p *Proc) SegmentIDs() []SegmentID {
	p.checkAlive()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SegmentID, 0, len(p.segs))
	for id := range p.segs {
		if id >= 0 {
			out = append(out, id)
		}
	}
	return out
}

// GroupIDs lists the currently known groups (gaspi_group_num extended).
func (p *Proc) GroupIDs() []GroupID {
	p.checkAlive()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]GroupID, 0, len(p.groups))
	for id := range p.groups {
		out = append(out, id)
	}
	return out
}

package gaspi

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"repro/internal/fabric"
)

// This file implements Barrier and Allreduce on the one-sided data plane:
// rounds are writes and notifications into a registered segment, not
// messages.
//
// Every committed group owns a dedicated collective segment (a reserved
// negative segment ID derived from the group ID, created before the commit
// handshake so peers can never observe a member without it). The segment
// is laid out as per-round, parity-double-buffered slots, each split into
// a two-deep chunk window (sub-slots cp ∈ {0,1}):
//
//	[ recv  (parity, round, cp) ... ] [ stage (parity, round, cp) ... ]
//
// with R = ceil(log2(n)) rounds per parity per phase and one chunk
// (collChunkElems float64s) per sub-slot. Notification slots mirror the
// layout: slot (parity*2R+round)*2+cp signals data arrival, slot
// 8R+(parity*2R+round)*2+cp carries the consumption ack of the segmented
// large-vector protocol. Consecutive collectives alternate parity
// (sequence number parity), and the completion invariant — no member can
// finish collective s before every member has started s — makes the
// two-deep parity buffering sufficient: by the time parity p is reused
// (s+2), every slot written during s has been consumed.
//
// Dissemination (Barrier) and binomial reduce+broadcast (Allreduce) rounds
// post their payloads with borrowed-buffer one-sided writes straight from
// the local staging area into the partner's recv area (the fabric's
// delivery sink lands them in registered memory, one copy, no channel
// hop), and wait on the notification slot with a spin-then-park loop. In
// steady state a small-vector Barrier/AllreduceF64Into performs zero heap
// allocations and zero encode/decode: the accumulator is cached on the
// group, staging is gathered through the segment's float64 view, and all
// round traffic is fire-and-forget one-sided posts (no completion
// bookkeeping — see collDataPost for why the borrowed-buffer contract
// holds without it).
//
// The binomial rounds address partners at power-of-two distances, and the
// fabric stripes destinations round-robin over its delivery shards: the
// posts of one round therefore land on distinct shard heaps and deliver
// in parallel instead of serializing behind a single timer heap.
//
// Vectors longer than one chunk run the segmented pipelined protocol:
// chunks alternate between the two sub-slots of the round, and the sender
// posts chunk c only after the receiver's ack of chunk c-2 — a two-chunk
// window that overlaps the transfer of one chunk with the consumption of
// the other, with bounded slot memory regardless of vector length.
//
// Fault awareness: a dead member NACKs the writes and probes directed at
// it, which marks it corrupt in the state vector and broadcasts
// corruptPulse; every waiter re-checks the member list on that pulse and
// fails promptly with ErrConnBroken instead of burning its timeout. A
// timed-out collective keeps its cursor in inflightColl and resumes
// exactly where it stopped; a group recommit (GroupDelete + recreate)
// invalidates the cursor and the segment wholesale.

// collChunkElems is the element capacity of one round sub-slot (8 KiB):
// small Lanczos-style reductions (dot products, norms) fit in one chunk,
// larger vectors run the windowed segmented protocol chunk by chunk.
const collChunkElems = 1024

// collSegID maps a group to its reserved collective segment ID. Negative
// IDs are reserved for the runtime; applications allocate non-negative
// ones.
func collSegID(gid GroupID) SegmentID { return SegmentID(-1 - int32(gid)) }

// collRounds returns ceil(log2(n)): the round count of the dissemination
// barrier and of each allreduce phase.
func collRounds(n int) int {
	r := 0
	for 1<<r < n {
		r++
	}
	return r
}

// collVal tags a data or ack notification with (sequence, chunk); the +1
// keeps the value non-zero for chunk 0 of any sequence. The chunk field
// is 20 bits, which bounds the vector length (collMaxElems).
func collVal(seq uint64, chunk int) int64 { return int64(seq)<<20 | int64(chunk+1) }

// collMaxElems is the largest vector an allreduce accepts: the chunk
// index must fit collVal's 20-bit field. Anything larger (≥8 GiB of
// float64s) is rejected with ErrInvalid.
const collMaxElems = collChunkElems * (1<<20 - 1)

// collFast is a group's registered-segment collective state.
type collFast struct {
	segID SegmentID
	seg   *segment
	view  []float64 // float64 view of seg.buf
	viewI []int64   // int64 view of the same memory (integer allreduce)
	r     int       // ceil(log2(n))
	chunk int       // collChunkElems
}

// element offsets and notification slots of the layout above; cp is the
// chunk-window sub-slot (chunk index & 1).
func (f *collFast) recvOff(parity, round, cp int) int {
	return ((parity*2*f.r+round)*2 + cp) * f.chunk
}
func (f *collFast) stageOff(parity, round, cp int) int {
	return (8*f.r + (parity*2*f.r+round)*2 + cp) * f.chunk
}
func (f *collFast) dataSlot(parity, round, cp int) NotificationID {
	return NotificationID((parity*2*f.r+round)*2 + cp)
}
func (f *collFast) ackSlot(parity, round, cp int) NotificationID {
	return NotificationID(8*f.r + (parity*2*f.r+round)*2 + cp)
}

// collSetup equips a group with its collective segment and round state;
// every committed group has one (g.fast != nil). The segment sizes its
// notification array from its own layout — 16·r slots, see dataSlot and
// ackSlot — so no group is too large for it. Existing state sized for a
// DIFFERENT round count is rebuilt — membership may legally grow between a
// timed-out commit and its retry (the group is still uncommitted), and a
// stale layout would silently desynchronize the slot scheme across
// members.
//
// No host byte-order check is needed here, unlike SegmentFloat64s: all
// ranks share one address space and this segment is only ever written and
// read through the same native []float64/[]int64 view (the fabric copies
// the staged bytes verbatim), so the layout is endian-clean.
func (p *Proc) collSetup(g *group) {
	r := collRounds(len(g.members))
	if g.fast != nil && g.fast.r == r {
		return
	}
	elems := max(16*r*collChunkElems, 1) // single-member group: no rounds, but keep the view valid
	s := &segment{
		id:        collSegID(g.id),
		buf:       make([]byte, 8*elems),
		notifVals: make([]int64, 16*r),
	}
	p.mu.Lock()
	p.segs[s.id] = s
	p.mu.Unlock()
	g.fast = &collFast{
		segID: s.id,
		seg:   s,
		view:  unsafe.Slice((*float64)(unsafe.Pointer(&s.buf[0])), elems),
		viewI: unsafe.Slice((*int64)(unsafe.Pointer(&s.buf[0])), elems),
		r:     r,
		chunk: collChunkElems,
	}
}

// collTeardown releases a group's collective segment (failed commit,
// GroupDelete holds p.mu itself and inlines the delete).
func (p *Proc) collTeardown(gid GroupID, g *group) {
	p.mu.Lock()
	delete(p.segs, collSegID(gid))
	p.mu.Unlock()
	g.fast = nil
}

// collCheckMembers fails with ErrConnBroken when any group member is
// conclusively dead (state vector corrupt): the collective can never
// complete, so waiting out the timeout would only delay recovery. The
// first discovery of a dead member also gossips the news to the rest of
// the group (see gossipDead) — with constant-degree ring probing, this
// rank may be the only one whose probe target died.
func (p *Proc) collCheckMembers(g *group) error {
	for _, m := range g.members {
		if m != p.rank && ProcState(p.statevec[m].Load()) == StateCorrupt {
			p.gossipDead(g, m)
			return fmt.Errorf("%w: group %d, rank %d", ErrConnBroken, g.id, m)
		}
	}
	return nil
}

// gossipDead fans a "rank looks dead" hint out to the other group members,
// at most once per (this process, dead rank) pair. Receivers verify the
// claim themselves by probing the named rank (nic.go kDeadGossip), so a
// stale or malicious hint cannot corrupt anyone's state vector.
func (p *Proc) gossipDead(g *group, dead Rank) {
	if int(dead) >= len(p.deadGossiped) || p.deadGossiped[dead].Swap(true) {
		return
	}
	for _, m := range g.members {
		if m != p.rank && m != dead {
			_ = p.ep.Send(m, fabric.Message{Kind: kDeadGossip, Args: [4]int64{int64(dead)}})
		}
	}
}

// collProbeInterval is the initial pacing of the liveness probes a
// parked collective waiter posts; it bounds how long a member death can
// go unnoticed by a waiter that nothing else would ever contact again.
// Within one parked wait the gap backs off exponentially to
// collProbeMaxInterval, so ordinary load-imbalance waits do not sustain
// O(members) probe traffic per waiter per tick. Every new wait posts one
// probe on entry and restarts at the fast rate, and an ft-layer call
// re-enters once per expired slice of its communication timeout (a
// sixteenth of it first, doubling) — still a handful of probes per blocked
// rank, all to the one successor, and none on a collective that completes
// within its first slice.
const collProbeInterval = 2 * time.Millisecond

// collProbeMaxInterval caps the probe backoff of a long-parked waiter.
const collProbeMaxInterval = 50 * time.Millisecond

// collProbeMembers posts a fire-and-forget liveness probe to this rank's
// ring successor in the group's member order. A live successor's NIC
// discards it silently; a dead one's closed endpoint NACKs it, which marks
// it corrupt and wakes this waiter. Constant-degree probing replaces the
// old probe-everyone scheme, whose aggregate traffic grew quadratically
// with group size and capped the bench-scale stream sweep: with a ring,
// total probe load is O(members) per tick. A death anywhere still breaks
// every waiter promptly — the dead member's ring predecessor discovers the
// NACK and gossips it to the whole group (collCheckMembers → gossipDead),
// and each receiver verifies with its own direct probe.
func (p *Proc) collProbeMembers(g *group) {
	n := len(g.members)
	if n <= 1 {
		return
	}
	if succ := g.members[(g.myIdx+1)%n]; succ != p.rank {
		_ = p.ep.Send(succ, fabric.Message{Kind: kProbe})
	}
}

// collDataPost posts one round payload: a one-sided write from the
// (borrowed) staging region into the partner's recv sub-slot, with the
// arrival notification piggybacked. Like collNotifyPost it is
// fire-and-forget (token 0, no completion reply): the staging buffer's
// stability is already guaranteed without a queue flush, because every
// reuse is ordered behind the receiver's CONSUMPTION of the previous
// occupant — the chunk window awaits the ack of chunk c-2 before
// overwriting its sub-slot, and the parity slots of collective s are only
// reused at s+2, by which point the completion invariant says every
// member consumed s. Consumption happens after the delivery-time read of
// the staging region, so the borrowed-buffer contract holds with no
// completion bookkeeping at all. A dead target's NACK still marks it
// corrupt.
//
//ftlint:hotpath
func (p *Proc) collDataPost(to Rank, f *collFast, dstByteOff int64, data []byte, slot NotificationID, val int64) {
	m := fabric.Message{
		Kind:    kWrite,
		Args:    [4]int64{int64(f.segID), dstByteOff, int64(slot) + 1, val},
		Payload: data,
	}
	_ = p.ep.Send(to, m)
}

// collNotifyPost posts a bare notification (barrier rounds, segmented
// acks) fire-and-forget: token 0 requests no completion reply from the
// target, halving the per-round message count. Nothing is lost — there is
// no payload buffer to guard, and a dead target's NACK still marks it
// corrupt (the NACK handler does not need a pending op for that).
//
//ftlint:hotpath
func (p *Proc) collNotifyPost(to Rank, f *collFast, slot NotificationID, val int64) {
	m := fabric.Message{
		Kind: kNotify,
		Args: [4]int64{int64(f.segID), 0, int64(slot) + 1, val},
	}
	_ = p.ep.Send(to, m)
}

// takeNotif consumes the expected collective value from a notification
// slot. A stale non-zero value (an abandoned same-parity instance after
// an unsynchronized same-ID group recreation) is discarded defensively.
//
//ftlint:hotpath
func (s *segment) takeNotif(slot NotificationID, want int64) bool {
	s.notifMu.Lock()
	v := s.notifVals[slot]
	if v == want {
		s.notifVals[slot] = 0
		s.notifMu.Unlock()
		return true
	}
	if v != 0 {
		s.notifVals[slot] = 0
	}
	s.notifMu.Unlock()
	return false
}

// collPark is the shared cold-path wait of every collective waiter (slot
// awaits and two-sided round receives): parked until cond succeeds,
// woken by the condition's pulse, a corrupt-marking NACK, the probe tick
// (re-probing the ring successor; a death elsewhere in the group reaches
// this waiter through the predecessor's verified gossip — so a member
// dying at any point, even after every survivor stopped sending, still
// breaks the wait promptly with ErrConnBroken), the armed attention line
// (ErrAttention: an early, resumable ErrTimeout), the timeout, or death.
func (p *Proc) collPark(g *group, pl *pulse, timeout time.Duration, cond func() bool) error {
	p.collProbeMembers(g)
	timer, stop := deadline(timeout)
	defer stop()
	gap := collProbeInterval
	probe := time.NewTimer(gap)
	defer probe.Stop()
	for {
		chCond := pl.Chan()
		chCorrupt := p.corruptPulse.Chan()
		attn := p.attn.wake()
		if cond() {
			return nil
		}
		if err := p.collCheckMembers(g); err != nil {
			return err
		}
		if p.attn.pending() {
			return ErrAttention
		}
		select {
		case <-chCond:
		case <-chCorrupt:
		case <-attn:
		case <-probe.C:
			p.collProbeMembers(g)
			if gap < collProbeMaxInterval {
				gap *= 2
			}
			probe.Reset(gap)
		case <-timer:
			return ErrTimeout
		case <-p.dead:
			p.checkAlive()
		}
	}
}

// collAwait consumes the expected value from a collective notification
// slot: immediate check, bounded user-space spin, then collPark. The
// closure is only materialized on the cold path, so a steady-state await
// that succeeds while spinning allocates nothing.
//
//ftlint:hotpath
func (p *Proc) collAwait(g *group, slot NotificationID, want int64, timeout time.Duration) error {
	s := g.fast.seg
	if s.takeNotif(slot, want) {
		return nil
	}
	if timeout == Test {
		if err := p.collCheckMembers(g); err != nil {
			return err
		}
		return ErrTimeout
	}
	for i, n := 0, p.cfg.SpinYields; i < n; i++ {
		runtime.Gosched()
		if s.takeNotif(slot, want) {
			return nil
		}
	}
	if err := p.collCheckMembers(g); err != nil {
		return err
	}
	return p.collPark(g, &s.notifPulse, timeout, func() bool { return s.takeNotif(slot, want) })
}

// barrierFast runs the dissemination barrier. st.round
// (plus st.sent, marking a posted-but-unanswered round) is the resume
// cursor.
//
//ftlint:hotpath
func (p *Proc) barrierFast(g *group, st *inflightColl, timeout time.Duration) error {
	f := g.fast
	n := len(g.members)
	parity := int(st.seq & 1)
	val := collVal(st.seq, 0)
	for st.round < f.r {
		dist := 1 << st.round
		to := g.members[(g.myIdx+dist)%n]
		slot := f.dataSlot(parity, st.round, 0)
		if !st.sent {
			p.collNotifyPost(to, f, slot, val)
			st.sent = true
		}
		if err := p.collAwait(g, slot, val, timeout); err != nil {
			return err
		}
		st.round, st.sent = st.round+1, false
	}
	p.finishCollective(g.id, st.seq)
	return nil
}

// collRoundRole determines this rank's part in allreduce round index i
// (0..2R-1: reduce towards member 0, then binomial broadcast from it).
// send=false with peer=-1 means the round does not involve this rank.
//
//ftlint:hotpath
func collRoundRole(i, r, myIdx, n int) (send bool, peer int) {
	if i < r { // reduce phase, mirrored: k = r-1-i
		dist := 1 << (r - 1 - i)
		switch {
		case myIdx >= dist && myIdx < 2*dist:
			return true, myIdx - dist
		case myIdx < dist && myIdx+dist < n:
			return false, myIdx + dist
		}
	} else { // broadcast phase: k = i-r
		dist := 1 << (i - r)
		switch {
		case myIdx < dist && myIdx+dist < n:
			return true, myIdx + dist
		case myIdx >= dist && myIdx < 2*dist:
			return false, myIdx - dist
		}
	}
	return false, -1
}

// collChunks returns the chunk count of a vector (one empty chunk for a
// zero-length vector, so the round protocol still exchanges its
// notifications).
//
//ftlint:hotpath
func (f *collFast) collChunks(vecLen int) int {
	if vecLen == 0 {
		return 1
	}
	return (vecLen + f.chunk - 1) / f.chunk
}

// allreduceFast runs the binomial allreduce for both element types (the int64 variant reads the wire chunks through an int64
// view of the same slots, so integer arithmetic stays exact). acc is the
// group-cached accumulator already holding this rank's contribution (or
// the partial state of a resumed call); view aliases the collective
// segment as []T. The result is copied to out.
//
//ftlint:hotpath
func allreduceFast[T int64 | float64](p *Proc, g *group, st *inflightColl, view, acc, out []T, combine func(dst, src []T, op ReduceOp), op ReduceOp, timeout time.Duration) error {
	f := g.fast
	n := len(g.members)
	L := st.vecLen
	m := f.collChunks(L)
	parity := int(st.seq & 1)
	for st.round < 2*f.r {
		send, peer := collRoundRole(st.round, f.r, g.myIdx, n)
		if peer < 0 {
			st.round, st.chunk = st.round+1, 0
			continue
		}
		to := g.members[peer]
		for st.chunk < m {
			c := st.chunk
			cp := c & 1
			lo := min(L, c*f.chunk)
			hi := min(L, (c+1)*f.chunk)
			if send {
				if c >= 2 {
					// Two-chunk window: the peer must have consumed chunk
					// c-2 before this sub-slot is overwritten, so chunk
					// c-1's transfer overlaps chunk c-2's consumption.
					if err := p.collAwait(g, f.ackSlot(parity, st.round, cp), collVal(st.seq, c-2), timeout); err != nil {
						return err
					}
				}
				so := f.stageOff(parity, st.round, cp)
				copy(view[so:so+(hi-lo)], acc[lo:hi])
				p.collDataPost(to, f, int64(8*f.recvOff(parity, st.round, cp)),
					f.seg.buf[8*so:8*(so+(hi-lo))], f.dataSlot(parity, st.round, cp), collVal(st.seq, c))
			} else {
				if err := p.collAwait(g, f.dataSlot(parity, st.round, cp), collVal(st.seq, c), timeout); err != nil {
					return err
				}
				ro := f.recvOff(parity, st.round, cp)
				if st.round < f.r {
					combine(acc[lo:hi], view[ro:ro+(hi-lo)], op)
				} else {
					copy(acc[lo:hi], view[ro:ro+(hi-lo)])
				}
				if c+2 < m {
					p.collNotifyPost(to, f, f.ackSlot(parity, st.round, cp), collVal(st.seq, c))
				}
			}
			st.chunk++
		}
		st.round, st.chunk = st.round+1, 0
	}
	copy(out, acc[:L])
	p.finishCollective(g.id, st.seq)
	return nil
}

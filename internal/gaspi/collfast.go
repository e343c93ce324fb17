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
// is laid out as per-round, parity-double-buffered sub-slots of
// collFast.small elements:
//
//	[ recv (parity, round) ... ] [ stage (parity, round) ... ]
//
// with R = ceil(log2(n)) rounds per parity per phase, so 4R sub-slots per
// area. Notification slot (parity*2R+round) signals data arrival in the
// recv sub-slot of the same index. Consecutive collectives alternate
// parity (sequence number parity), and the completion invariant — no
// member can finish collective s before every member has started s —
// makes the two-deep parity buffering sufficient: by the time parity p is
// reused (s+2), every slot written during s has been consumed.
//
// A sub-slot holds max(collSmallMin, members) elements rounded up to a
// power of two: what the fault-tolerance framework and the solvers reduce
// (dot products, norms, agreement vectors of one element per member at
// most). A longer vector is refused with ErrInvalid before it pins a
// sequence number, as GASPI refuses one past gaspi_allreduce_elem_max. The
// whole segment is allocated at the commit — 2 KiB for four members — and
// never grows.
//
// Dissemination (Barrier) and binomial reduce+broadcast (Allreduce) rounds
// post their payloads with borrowed-buffer one-sided writes straight from
// the local staging area into the partner's recv area (the target's NIC
// lands them in registered memory at delivery, one copy, no goroutine
// hop), and wait on the notification slot with a spin-then-park loop. In
// steady state a Barrier/AllreduceF64Into performs zero heap allocations
// and zero encode/decode: the accumulator is cached on the group, staging
// is gathered through the segment's float64 view, and all round traffic is
// fire-and-forget one-sided posts (no completion bookkeeping — see
// collDataPost for why the borrowed-buffer contract holds without it).
//
// The binomial rounds address partners at power-of-two distances, and the
// fabric stripes destinations round-robin over its delivery shards: the
// posts of one round therefore land on distinct shard heaps and deliver
// in parallel instead of serializing behind a single timer heap.
//
// Fault awareness: a dead member NACKs the writes and probes directed at
// it, which marks it corrupt in the state vector and broadcasts
// corruptPulse; every waiter re-checks the member list on that pulse and
// fails promptly with ErrConnBroken instead of burning its timeout. A
// timed-out collective keeps its cursor in inflightColl and resumes
// exactly where it stopped; a group recommit (GroupDelete + recreate)
// invalidates the cursor and the segment wholesale.

// collSmallMin is the least element capacity of a sub-slot: the dot
// products, norms and agreement pairs of a small group fit with room to
// spare.
const collSmallMin = 16

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

// collVal tags a data notification with its collective's sequence number,
// which is never zero (a committed group starts at 1).
func collVal(seq uint64) int64 { return int64(seq) }

// collFast is a group's registered-segment collective state.
type collFast struct {
	segID SegmentID
	seg   *segment
	r     int // ceil(log2(n))
	small int // element capacity of a sub-slot, the longest allreduce
}

// sub numbers the sub-slots of either area (recv, stage) and the
// notification slots.
func (f *collFast) sub(parity, round int) int { return parity*2*f.r + round }

// Element offsets of the layout above. The stage area follows the 4R recv
// sub-slots.
func (f *collFast) recvOff(sub int) int  { return sub * f.small }
func (f *collFast) stageOff(sub int) int { return (4*f.r + sub) * f.small }

func (f *collFast) dataSlot(sub int) NotificationID { return NotificationID(sub) }

// collView is the typed view of a collective segment's memory.
//
// No host byte-order check is needed: all ranks share one address space
// and this segment is only ever written and read through the same native
// []float64/[]int64 view (the fabric copies the staged bytes verbatim), so
// the layout is endian-clean.
//
//ftlint:hotpath
func collView[T int64 | float64](s *segment) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(&s.buf[0])), len(s.buf)/8)
}

// collSetup equips a group with its collective segment and round state;
// every committed group has one (g.fast != nil). Sub-slots hold
// max(collSmallMin, members) elements rounded up to a power of two — 2 KiB
// of segment for a 4-member group. The segment sizes its notification
// array from its own layout — 4R slots, see dataSlot — so no group is too
// large for it. Existing state sized for a DIFFERENT round count is
// rebuilt — membership may legally grow between a timed-out commit and its
// retry (the group is still uncommitted), and a stale layout would
// silently desynchronize the slot scheme across members.
func (p *Proc) collSetup(g *group) {
	r := collRounds(len(g.members))
	if g.fast != nil && g.fast.r == r {
		return
	}
	f := &collFast{segID: collSegID(g.id), r: r, small: collSmallMin}
	for f.small < len(g.members) {
		f.small *= 2
	}
	// A single-member group has no rounds; one element keeps the segment's
	// typed view valid.
	size := 8 * max(8*r*f.small, 1)
	f.seg = &segment{
		id:        f.segID,
		size:      size,
		buf:       make([]byte, size),
		notifVals: make([]int64, 4*r),
	}
	p.mu.Lock()
	p.segs[f.segID] = f.seg
	p.mu.Unlock()
	g.fast = f
}

// collTeardown releases a failed commit's collective segment and cursor
// (GroupDelete holds p.mu itself and inlines the delete).
func (p *Proc) collTeardown(gid GroupID, g *group) {
	p.mu.Lock()
	delete(p.segs, collSegID(gid))
	g.active, g.cur = false, inflightColl{}
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
// with group size and capped the scale mode's stream sweep: with a ring,
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
// stability is already guaranteed without a queue flush, because the
// parity slots of collective s are only reused at s+2, by which point the
// completion invariant says every member consumed s. Consumption happens
// after the delivery-time read of the staging region, so the
// borrowed-buffer contract holds with no completion bookkeeping at all. A
// dead target's NACK still marks it corrupt.
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

// collNotifyPost posts a bare notification (barrier rounds)
// fire-and-forget: token 0 requests no completion reply from the
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
	val := collVal(st.seq)
	for st.round < f.r {
		dist := 1 << st.round
		to := g.members[(g.myIdx+dist)%n]
		slot := f.dataSlot(f.sub(parity, st.round))
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

// allreduceFast runs the binomial allreduce for both element types (the
// int64 variant reads the wire payloads through an int64 view of the same
// slots, so integer arithmetic stays exact). acc is the group-cached
// accumulator already holding this rank's contribution (or the partial
// state of a resumed call). The result is copied to out. st.round is the
// resume cursor: a sender never waits, so a timeout strikes a receive,
// which the resumed call waits for again.
//
//ftlint:hotpath
func allreduceFast[T int64 | float64](p *Proc, g *group, st *inflightColl, acc, out []T, combine func(dst, src []T, op ReduceOp), op ReduceOp, timeout time.Duration) error {
	f := g.fast
	n := len(g.members)
	L := st.vecLen
	view := collView[T](f.seg)
	parity := int(st.seq & 1)
	val := collVal(st.seq)
	for ; st.round < 2*f.r; st.round++ {
		send, peer := collRoundRole(st.round, f.r, g.myIdx, n)
		if peer < 0 {
			continue
		}
		sub := f.sub(parity, st.round)
		if send {
			so := f.stageOff(sub)
			copy(view[so:so+L], acc[:L])
			p.collDataPost(g.members[peer], f, int64(8*f.recvOff(sub)), f.seg.buf[8*so:8*(so+L)], f.dataSlot(sub), val)
			continue
		}
		if err := p.collAwait(g, f.dataSlot(sub), val, timeout); err != nil {
			return err
		}
		ro := f.recvOff(sub)
		if st.round < f.r {
			combine(acc[:L], view[ro:ro+L], op)
		} else {
			copy(acc[:L], view[ro:ro+L])
		}
	}
	copy(out, acc[:L])
	p.finishCollective(g.id, st.seq)
	return nil
}

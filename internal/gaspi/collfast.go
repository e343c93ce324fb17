package gaspi

import (
	"cmp"
	"errors"
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
// Fault awareness: a waiter depends on one rank per round, the round's
// source (collRoundRole, barrierFast), and fails promptly with
// ErrConnBroken once that rank is marked corrupt — by its connection
// reset (a witnessed process death, Proc.die), by the NACK of a write or
// probe directed at it, or by a peer's verified gossip — instead of
// burning its timeout. A dead member that is no round's source of this
// waiter does not fail it: its data is already in flight, or the round
// that needs it fails at its consumer, which forwards the failure
// (collFailed) to every member still waiting on it. A timed-out
// collective keeps its cursor in inflightColl and resumes exactly where
// it stopped; a group recommit (GroupDelete + recreate) invalidates the
// cursor and the segment wholesale.

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

// collCheckMembers gossips every group member it finds conclusively dead
// (state vector corrupt; see gossipDead) — with constant-degree ring
// probing, this rank may be the only one whose probe target died — and
// fails with ErrConnBroken when one of them is src, the rank this wait
// depends on: the child in a reduce round, the parent in a broadcast
// round, the round's source in the barrier. Any other dead member leaves
// the wait running: its data is in flight from src, or src fails and
// forwards the failure (collFailed). The commit handshake needs every
// member and passes NilRank: any dead member fails it.
func (p *Proc) collCheckMembers(g *group, src Rank) error {
	for _, m := range g.members {
		if m != p.rank && ProcState(p.statevec[m].Load()) == StateCorrupt {
			p.gossipDead(g, m)
			if src == NilRank || m == src {
				return p.lostErr(ErrConnBroken, m, fmt.Sprintf("group %d", g.id))
			}
		}
	}
	return nil
}

// lostErr is the error of a wait on rank r, which is dead: err for what,
// joined with ErrReset when r's death was witnessed (its connection reset
// arrived), so the caller can tell how the death became known.
func (p *Proc) lostErr(err error, r Rank, what string) error {
	if int(r) < len(p.resetSeen) && p.resetSeen[r].Load() {
		return fmt.Errorf("%w: %s, rank %d: %w", err, what, r, ErrReset)
	}
	return fmt.Errorf("%w: %s, rank %d", err, what, r)
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
// total probe load is O(members) per tick. An unwitnessed death anywhere
// still reaches every waiter promptly — the dead member's ring predecessor
// discovers the NACK and gossips it to the whole group (collCheckMembers →
// gossipDead), and each receiver verifies with its own direct probe; the
// waiters whose source it is fail, and forward their failure.
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

// takeNotif consumes a collective notification slot: ok when it held the
// expected value, aborted when it held the expected collective's abort
// (collFailed). Any other non-zero value (an abandoned same-parity
// instance after an unsynchronized same-ID group recreation) is discarded
// defensively.
//
//ftlint:hotpath
func (s *segment) takeNotif(slot NotificationID, want int64) (ok, aborted bool) {
	s.notifMu.Lock()
	v := s.notifVals[slot]
	if v != 0 {
		s.notifVals[slot] = 0
	}
	s.notifMu.Unlock()
	return v == want, v == -want
}

// collPark is the shared cold-path wait of every collective waiter (slot
// awaits and two-sided round receives): parked until cond succeeds,
// woken by the condition's pulse, a corrupt-marking reset or NACK, the
// probe tick (re-probing the ring successor; a death elsewhere in the
// group reaches this waiter through the predecessor's verified gossip),
// the armed attention line (ErrAttention: an early, resumable
// ErrTimeout), the timeout, or death. Only src's death fails the wait
// (collCheckMembers): a live source either delivers or fails and forwards
// its failure, and a source that does neither has left the collective
// for good reasons of its own — under the ft layer, for a recovery whose
// acknowledgment raises this waiter's attention line too.
func (p *Proc) collPark(g *group, src Rank, pl *pulse, timeout time.Duration, cond func() bool) error {
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
		if err := p.collCheckMembers(g, src); err != nil {
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
// slot, whose writer is src: immediate check, bounded user-space spin,
// then collPark. An abort in the slot fails the wait with ErrConnBroken.
// The closure is only materialized on the cold path, so a steady-state
// await that succeeds while spinning allocates nothing.
//
//ftlint:hotpath
func (p *Proc) collAwait(g *group, src Rank, slot NotificationID, want int64, timeout time.Duration) error {
	s := g.fast.seg
	ok, aborted := s.takeNotif(slot, want)
	for i, n := 0, p.cfg.SpinYields; !ok && !aborted && timeout != Test && i < n; i++ {
		runtime.Gosched()
		ok, aborted = s.takeNotif(slot, want)
	}
	if !ok && !aborted {
		if err := p.collCheckMembers(g, src); err != nil || timeout == Test {
			return cmp.Or(err, ErrTimeout)
		}
		if err := p.collPark(g, src, &s.notifPulse, timeout, func() bool {
			ok, aborted = s.takeNotif(slot, want)
			return ok || aborted
		}); err != nil {
			return err
		}
	}
	if aborted {
		return fmt.Errorf("%w: group %d, rank %d forwarded a failure", ErrConnBroken, g.id, src) //ftlint:ignore hotpath: failure path only
	}
	return nil
}

// collFailed ends a collective whose round failed. A conclusive failure
// (ErrConnBroken: the source is dead or forwarded its own failure) is
// forwarded once: an abort goes into the slot of every later round in
// which this rank would still have sent, so the members waiting on it
// fail promptly too, and every later call of the collective fails at
// once. A resumable failure (a timeout, ErrAttention) forwards nothing:
// the resumed call goes on from its cursor.
func (p *Proc) collFailed(g *group, st *inflightColl, err error) error {
	if errors.Is(err, ErrTimeout) {
		return err
	}
	f := g.fast
	n := len(g.members)
	abort := -collVal(st.seq)
	parity := int(st.seq & 1)
	if st.kind == collBarrier {
		for round := st.round + 1; round < f.r; round++ {
			to := g.members[(g.myIdx+1<<round)%n]
			p.collNotifyPost(to, f, f.dataSlot(f.sub(parity, round)), abort)
		}
	} else {
		for round := st.round + 1; round < 2*f.r; round++ {
			if send, peer := collRoundRole(round, f.r, g.myIdx, n); send {
				p.collNotifyPost(g.members[peer], f, f.dataSlot(f.sub(parity, round)), abort)
			}
		}
	}
	st.failed = true
	return err
}

// collRefused is the error of a call resuming a collective that already
// failed conclusively: its failure was forwarded, and its slots may hold
// nothing this rank will ever be sent again.
func collRefused(g *group, st *inflightColl) error {
	return fmt.Errorf("%w: group %d, collective %d already failed", ErrConnBroken, g.id, st.seq)
}

// barrierFast runs the dissemination barrier. st.round
// (plus st.sent, marking a posted-but-unanswered round) is the resume
// cursor.
//
//ftlint:hotpath
func (p *Proc) barrierFast(g *group, st *inflightColl, timeout time.Duration) error {
	if st.failed {
		return collRefused(g, st) //ftlint:ignore hotpath: failure path only
	}
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
		src := g.members[(g.myIdx-dist+n)%n]
		if err := p.collAwait(g, src, slot, val, timeout); err != nil {
			return p.collFailed(g, st, err)
		}
		st.round, st.sent = st.round+1, false
	}
	p.finishCollective(g.id, st.seq)
	return nil
}

// collSendHook, when set, runs before each allreduce round send with the
// sender and the round index. Tests only: it orders a send after events
// elsewhere in the job (witness_test.go). Set it before the job starts.
var collSendHook func(p *Proc, round int)

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
	if st.failed {
		return collRefused(g, st) //ftlint:ignore hotpath: failure path only
	}
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
			if collSendHook != nil {
				collSendHook(p, st.round)
			}
			so := f.stageOff(sub)
			copy(view[so:so+L], acc[:L])
			p.collDataPost(g.members[peer], f, int64(8*f.recvOff(sub)), f.seg.buf[8*so:8*(so+L)], f.dataSlot(sub), val)
			continue
		}
		if err := p.collAwait(g, g.members[peer], f.dataSlot(sub), val, timeout); err != nil {
			return p.collFailed(g, st, err)
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

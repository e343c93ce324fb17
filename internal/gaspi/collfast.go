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
// two sub-slots cp ∈ {0,1}:
//
//	[ recv  (parity, round, cp) ... ] [ stage (parity, round, cp) ... ]
//
// with R = ceil(log2(n)) rounds per parity per phase. Notification slots
// mirror the layout: slot (parity*2R+round)*2+cp signals data arrival,
// slot 8R+(parity*2R+round)*2+cp carries the grants and consumption acks
// of the windowed large-vector protocol. Consecutive collectives alternate
// parity (sequence number parity), and the completion invariant — no
// member can finish collective s before every member has started s —
// makes the two-deep parity buffering sufficient: by the time parity p is
// reused (s+2), every slot written during s has been consumed.
//
// The layout exists in two tiers. Resident from the group's creation are
// the notification array and sub-slots of collFast.small elements — room
// for what the fault-tolerance framework and the solvers reduce (dot
// products, norms, agreement vectors of one element per member at most).
// The chunk window, the same layout with collChunkElems elements per
// sub-slot, is appended to the segment by the group's first allreduce of a
// longer vector (collWindow) — the scale sweep's 64-element allreduce on 4 and 16
// ranks is the one in this tree: a group that only ever reduces short
// vectors never allocates, zeroes or carries it, and a group recommit on
// the recovery path costs kilobytes.
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
// Vectors longer than a resident sub-slot go through the chunk window,
// chunk by chunk: chunks alternate between the two sub-slots of the round,
// and the sender posts chunk c ≥ 2 only on the consumption ack of chunk
// c-2. A two-chunk window overlaps the transfer of one chunk with the
// consumption of the other, with bounded slot memory regardless of vector
// length; a vector of one or two chunks exchanges no acks at all.
//
// The window's rendezvous happens once per group. In the group's first
// windowed collective a sender does not assume sub-slots 0 and 1 either:
// it waits for the grants the receiver posts when it enters the round —
// after materialising its window, so no partner can post into a window
// that does not exist yet. Grants travel as the acks of chunks -2 and -1
// and land in the resident notification array, so they need no window on
// the sender's side. Once a member has completed that collective, the
// completion invariant says every member has entered it, hence owns its
// window (collFast.windowMet): later collectives post their first two
// chunks unasked, and a steady stream of medium vectors costs the messages
// it cost when every segment was born with its window. A straggler grant
// of an abandoned instance could stand in for a missing window after an
// unsynchronised same-ID recreation (the write is dropped out of bounds
// and the collective times out); the recovery path always commits a fresh
// group ID.
//
// Fault awareness: a dead member NACKs the writes and probes directed at
// it, which marks it corrupt in the state vector and broadcasts
// corruptPulse; every waiter re-checks the member list on that pulse and
// fails promptly with ErrConnBroken instead of burning its timeout. A
// timed-out collective keeps its cursor in inflightColl and resumes
// exactly where it stopped; a group recommit (GroupDelete + recreate)
// invalidates the cursor and the segment wholesale.

// collChunkElems is the element capacity of one chunk-window sub-slot
// (8 KiB): vectors too long for a resident sub-slot run the windowed
// protocol chunk by chunk.
const collChunkElems = 1024

// collSmallMin is the least element capacity of a resident sub-slot: the
// dot products, norms and agreement pairs of a small group fit with room
// to spare. Anything longer takes the chunk window, at the price of one
// rendezvous and one allocation per group.
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

// collVal tags a data, grant or ack notification with (sequence, chunk).
// Chunks -2 and -1 are the grants of the two window sub-slots in a group's
// first windowed collective (the "acks" of the chunks that would have
// preceded 0 and 1); the +3 keeps the value non-zero for them at any
// sequence. The chunk field is 20 bits, which bounds the vector length
// (collMaxElems).
func collVal(seq uint64, chunk int) int64 { return int64(seq)<<20 | int64(chunk+3) }

// collMaxElems is the largest vector an allreduce accepts: the chunk
// index must fit collVal's 20-bit field. Anything larger (≥8 GiB of
// float64s) is rejected with ErrInvalid.
const collMaxElems = collChunkElems * (1<<20 - 3)

// collFast is a group's registered-segment collective state.
type collFast struct {
	segID SegmentID
	seg   *segment
	r     int // ceil(log2(n))
	small int // element capacity of a resident sub-slot
	// windowMet is set once this member has completed a windowed
	// collective: every member has then entered one, so every window exists
	// and senders stop waiting for grants.
	windowMet bool
}

// collTier addresses one tier of the segment layout: the element offset of
// its first sub-slot and the element capacity of each.
type collTier struct{ base, chunk int }

// sub numbers the sub-slots of either area (recv, stage) and of either
// half of the notification array (data, ack); cp is the chunk-window
// sub-slot (chunk index & 1).
func (f *collFast) sub(parity, round, cp int) int { return (parity*2*f.r+round)*2 + cp }

// Element offsets of the layout above. The stage area follows the tier's
// 8R recv sub-slots.
func (f *collFast) recvOff(t collTier, sub int) int  { return t.base + sub*t.chunk }
func (f *collFast) stageOff(t collTier, sub int) int { return t.base + (8*f.r+sub)*t.chunk }

func (f *collFast) dataSlot(sub int) NotificationID { return NotificationID(sub) }
func (f *collFast) ackSlot(sub int) NotificationID  { return NotificationID(8*f.r + sub) }

// residentElems is the element count of the resident tier, and with it
// the chunk window's base. A single-member group has no rounds; one
// element keeps the segment's typed view valid.
func (f *collFast) residentElems() int { return max(16*f.r*f.small, 1) }

// tier returns the tier a vector of vecLen elements is reduced through:
// the resident sub-slots when it fits in one, the chunk window otherwise.
// A pure function of the length and the group's size, so every member
// picks the same one.
//
//ftlint:hotpath
func (f *collFast) tier(vecLen int) (t collTier, windowed bool) {
	if vecLen <= f.small {
		return collTier{base: 0, chunk: f.small}, false
	}
	return collTier{base: f.residentElems(), chunk: collChunkElems}, true
}

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
// every committed group has one (g.fast != nil). Only the resident tier is
// allocated: sub-slots of max(collSmallMin, members) elements rounded up
// to a power of two — 4 KiB for a 4-member group. The segment sizes its
// notification array from its own layout — 16·r slots, see dataSlot and
// ackSlot — so no group is too large for it. Existing state sized for a
// DIFFERENT round count is rebuilt — membership may legally grow between a
// timed-out commit and its retry (the group is still uncommitted), and a
// stale layout would silently desynchronize the slot scheme across
// members.
func (p *Proc) collSetup(g *group) {
	r := collRounds(len(g.members))
	if g.fast != nil && g.fast.r == r {
		return
	}
	f := &collFast{segID: collSegID(g.id), r: r, small: collSmallMin}
	for f.small < len(g.members) {
		f.small *= 2
	}
	size := 8 * f.residentElems()
	f.seg = &segment{
		id:        f.segID,
		size:      size,
		buf:       make([]byte, size),
		notifVals: make([]int64, 16*r),
	}
	p.mu.Lock()
	p.segs[f.segID] = f.seg
	p.mu.Unlock()
	g.fast = f
}

// collWindow materialises the chunk window: the segment's declared size
// grows, once, from its resident tier to the full layout, and the segment
// backs it whole (segment.back: a write lands either in the old buffer
// before the copy or in the new one after it). Only the owning collective
// goroutine calls this, and it alone reads seg.buf outside the lock;
// payloads of its earlier posts still in flight keep borrowing the old
// staging area, which nothing writes any more. Until then a write into the
// window is out of bounds, so no delivery can move seg.buf under the owner.
func (p *Proc) collWindow(f *collFast) {
	base := f.residentElems()
	if len(f.seg.buf) > 8*base || f.r == 0 {
		return
	}
	f.seg.mu.Lock()
	f.seg.size = 8 * (base + 16*f.r*collChunkElems)
	f.seg.back(int64(f.seg.size))
	f.seg.mu.Unlock()
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

// collNotifyPost posts a bare notification (barrier rounds, window grants
// and acks) fire-and-forget: token 0 requests no completion reply from the
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
		slot := f.dataSlot(f.sub(parity, st.round, 0))
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

// chunks returns the chunk count of a vector on tier t (one empty chunk
// for a zero-length vector, so the round protocol still exchanges its
// notifications).
//
//ftlint:hotpath
func (t collTier) chunks(vecLen int) int {
	if vecLen == 0 {
		return 1
	}
	return (vecLen + t.chunk - 1) / t.chunk
}

// allreduceFast runs the binomial allreduce for both element types (the int64 variant reads the wire chunks through an int64
// view of the same slots, so integer arithmetic stays exact). acc is the
// group-cached accumulator already holding this rank's contribution (or
// the partial state of a resumed call). The result is copied to out.
// st.round and st.chunk are the resume cursor, plus st.sent in the group's
// first windowed collective: the round's grants are out.
//
//ftlint:hotpath
func allreduceFast[T int64 | float64](p *Proc, g *group, st *inflightColl, acc, out []T, combine func(dst, src []T, op ReduceOp), op ReduceOp, timeout time.Duration) error {
	f := g.fast
	n := len(g.members)
	L := st.vecLen
	t, windowed := f.tier(L)
	if windowed {
		p.collWindow(f)
	}
	grant := windowed && !f.windowMet
	view := collView[T](f.seg)
	m := t.chunks(L)
	parity := int(st.seq & 1)
	for st.round < 2*f.r {
		send, peer := collRoundRole(st.round, f.r, g.myIdx, n)
		if peer < 0 {
			st.round, st.chunk = st.round+1, 0
			continue
		}
		to := g.members[peer]
		if grant && !send && !st.sent {
			// Entering the round as receiver, window in place: grant the
			// sender its sub-slots.
			for c := 0; c < min(2, m); c++ {
				p.collNotifyPost(to, f, f.ackSlot(f.sub(parity, st.round, c)), collVal(st.seq, c-2))
			}
			st.sent = true
		}
		for st.chunk < m {
			c := st.chunk
			sub := f.sub(parity, st.round, c&1)
			lo := min(L, c*t.chunk)
			hi := min(L, (c+1)*t.chunk)
			if send {
				if windowed && (c >= 2 || grant) {
					// Two-chunk window: the peer must have consumed chunk
					// c-2 out of this sub-slot — or, not yet known to have
					// a window, granted it — before it is written, so
					// chunk c-1's transfer overlaps chunk c-2's consumption.
					if err := p.collAwait(g, f.ackSlot(sub), collVal(st.seq, c-2), timeout); err != nil {
						return err
					}
				}
				so := f.stageOff(t, sub)
				copy(view[so:so+(hi-lo)], acc[lo:hi])
				p.collDataPost(to, f, int64(8*f.recvOff(t, sub)),
					f.seg.buf[8*so:8*(so+(hi-lo))], f.dataSlot(sub), collVal(st.seq, c))
			} else {
				if err := p.collAwait(g, f.dataSlot(sub), collVal(st.seq, c), timeout); err != nil {
					return err
				}
				ro := f.recvOff(t, sub)
				if st.round < f.r {
					combine(acc[lo:hi], view[ro:ro+(hi-lo)], op)
				} else {
					copy(acc[lo:hi], view[ro:ro+(hi-lo)])
				}
				if c+2 < m {
					p.collNotifyPost(to, f, f.ackSlot(sub), collVal(st.seq, c))
				}
			}
			st.chunk++
		}
		st.round, st.chunk, st.sent = st.round+1, 0, false
	}
	copy(out, acc[:L])
	f.windowMet = f.windowMet || windowed
	p.finishCollective(g.id, st.seq)
	return nil
}

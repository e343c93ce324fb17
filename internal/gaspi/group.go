package gaspi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"time"
)

// group is a committed (or under-construction) set of ranks participating
// in collectives, mirroring gaspi_group_t.
type group struct {
	id        GroupID
	members   []Rank // in GroupAdd order
	myIdx     int
	committed bool
	seq       uint64 // collective sequence number, advances per completed operation
	active    bool   // a collective is in flight (cur is valid)
	cur       inflightColl
	// view is the membership view version (Proc.viewVersion) this group was
	// committed under. A group older than the process's published view is
	// stale — a failure notice replaced some member since — and
	// collectives on it fail fast with ErrStaleView instead of parking in a
	// round with a dead member.
	view uint64

	// fast is the registered-segment collective state, set by collSetup
	// before the group commits: never nil on a committed group.
	fast *collFast
	// accF/accI are the reduction accumulators, cached on the group so a
	// steady-state small-vector allreduce allocates nothing.
	accF []float64
	accI []int64
}

// inflightColl tracks a collective (or the group commit) that timed out
// and may be resumed. Per the GASPI specification, a collective returning
// GASPI_TIMEOUT must be called again with identical arguments until it
// completes; the sequence number is pinned until then. Every round
// protocol keeps its progress cursor here, so a resumed call continues
// exactly where the timeout struck instead of replaying rounds (a replayed
// round would re-notify a slot its consumer already advanced past, or sit
// unconsumed in collBuf).
type inflightColl struct {
	kind   uint8
	seq    uint64
	vecLen int  // element count, cross-checked on resume
	round  int  // next unfinished round index
	sent   bool // the barrier's notification of the current round is posted
	failed bool // failed conclusively; its failure was forwarded (collFailed)
}

// GroupCreate starts building a group with the given ID
// (gaspi_group_create). Unlike the C API the ID is chosen by the caller, so
// ranks with different group-allocation histories — the paper's rescue
// processes, which never held the original worker group — can deterministically
// agree on the replacement group's identity.
func (p *Proc) GroupCreate(gid GroupID) error {
	p.checkAlive()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.groups[gid]; ok {
		return fmt.Errorf("%w: group %d already exists", ErrInvalid, gid)
	}
	p.groups[gid] = &group{id: gid}
	return nil
}

// GroupAdd adds a rank to an uncommitted group (gaspi_group_add).
func (p *Proc) GroupAdd(gid GroupID, rank Rank) error {
	p.checkAlive()
	if err := p.validRank(rank); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[gid]
	if !ok {
		return fmt.Errorf("%w: unknown group %d", ErrInvalid, gid)
	}
	if g.committed {
		return fmt.Errorf("%w: group %d already committed", ErrInvalid, gid)
	}
	if slices.Contains(g.members, rank) {
		return nil // idempotent
	}
	g.members = append(g.members, rank)
	// A commit in progress ran its rounds for the old member list.
	g.active, g.cur = false, inflightColl{}
	return nil
}

// GroupDelete removes a group and purges any buffered collective traffic
// for it (gaspi_group_delete). Deleting an unknown group is a no-op so the
// recovery code (where rescue processes never held the old group) can call
// it unconditionally, as in the paper's Listing 2.
func (p *Proc) GroupDelete(gid GroupID) {
	p.checkAlive()
	if gid == GroupAll {
		return // the all-group is permanent
	}
	p.mu.Lock()
	delete(p.groups, gid)
	// The group's registered collective segment goes with it; any
	// collective in flight on the group is invalidated here (cur died with
	// the group object), which is what makes a recovery's delete→recreate→
	// recommit cycle safe while members sit mid-collective.
	delete(p.segs, collSegID(gid))
	p.mu.Unlock()
	// Rounds of an abandoned commit go too. A round of the DELETED
	// instance still in flight can land after this purge — at receive time
	// it is indistinguishable from a recreated instance's early commit
	// traffic, which must be buffered — so at most one commit's rounds per
	// deletion stay behind.
	p.collMu.Lock()
	for k := range p.collBuf {
		if k.gid == gid {
			delete(p.collBuf, k)
		}
	}
	p.collMu.Unlock()
}

// GroupSize returns the number of ranks in a group (gaspi_group_size).
func (p *Proc) GroupSize(gid GroupID) (int, error) {
	p.checkAlive()
	g, err := p.groupLookup(gid)
	if err != nil {
		return 0, err
	}
	return len(g.members), nil
}

// GroupCommit establishes the group collectively (gaspi_group_commit):
// every member must call it; the call blocks until all members have joined
// (this blocking handshake is the paper's OHF2 overhead). Members keep
// their GroupAdd order, which sets each member's index in the collectives'
// round schedules; the order is cross-checked via a hash carried through
// the handshake rounds, and a mismatch — another member list or the same
// one in another order — yields ErrGroupMismatch. A commit that returns
// ErrTimeout keeps its cursor (g.cur, as barrierFast does): calling it
// again sends no round twice and waits again for no round it consumed.
// Any other error tears the cursor and the collective segment down.
func (p *Proc) GroupCommit(gid GroupID, timeout time.Duration) error {
	p.checkAlive()
	p.mu.Lock()
	g, ok := p.groups[gid]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: unknown group %d", ErrInvalid, gid)
	}
	if g.committed {
		p.mu.Unlock()
		return fmt.Errorf("%w: group %d already committed", ErrInvalid, gid)
	}
	g.myIdx = slices.Index(g.members, p.rank)
	if !g.active {
		g.cur = inflightColl{kind: collCommit}
		g.active = true
	}
	members, myIdx, st := g.members, g.myIdx, &g.cur
	p.mu.Unlock()

	if myIdx < 0 {
		return fmt.Errorf("%w: commit of group %d by non-member rank %d", ErrInvalid, gid, p.rank)
	}
	// The registered collective segment must exist before the first
	// handshake round goes out: a peer completes its commit only after
	// this rank's final-round message, so by the time any peer can post
	// fast-path collective traffic here, the segment is in place.
	p.collSetup(g)
	h := membersHash(members)
	// Dissemination handshake: after round k every rank has transitively
	// heard from 2^(k+1) neighbours; ceil(log2(n)) rounds reach everyone.
	n := len(members)
	for ; 1<<st.round < n; st.round, st.sent = st.round+1, false {
		dist := 1 << st.round
		from := members[((myIdx-dist)%n+n)%n]
		if !st.sent {
			if err := p.collSend(gid, int32(st.round), members[(myIdx+dist)%n], h); err != nil {
				p.collTeardown(gid, g)
				return err
			}
			st.sent = true
		}
		got, err := p.collRecv(g, int32(st.round), from, timeout)
		if errors.Is(err, ErrTimeout) {
			return err
		}
		if err == nil && string(got) != string(h) {
			err = fmt.Errorf("%w: group %d: rank %d disagrees on membership", ErrGroupMismatch, gid, from)
		}
		if err != nil {
			p.collTeardown(gid, g)
			return err
		}
	}

	p.mu.Lock()
	g.committed = true
	g.seq = 1
	g.view = p.viewVersion.Load()
	g.active, g.cur = false, inflightColl{}
	p.mu.Unlock()
	return nil
}

func (p *Proc) groupLookup(gid GroupID) (*group, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[gid]
	if !ok {
		return nil, fmt.Errorf("%w: unknown group %d", ErrInvalid, gid)
	}
	return g, nil
}

// startCollective fetches a committed group and pins the sequence number of
// the collective being started — or resumed: a collective that previously
// returned ErrTimeout keeps its sequence (and fast-path progress cursor)
// until it completes, so calling the operation again with identical
// arguments continues it (GASPI timeout semantics). Mixing in a different
// collective — or the same one with a different vector length — while one
// is in flight is an error, and so is a vector longer than the group's
// collective sub-slot, refused before it pins a sequence number. The group
// and cursor pointers are owned by the calling goroutine until
// finishCollective (collectives on one group are not concurrent, per the
// GASPI contract).
func (p *Proc) startCollective(gid GroupID, kind uint8, vecLen int) (*group, *inflightColl, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[gid]
	if !ok {
		return nil, nil, false, fmt.Errorf("%w: unknown group %d", ErrInvalid, gid)
	}
	if !g.committed {
		return nil, nil, false, fmt.Errorf("%w: group %d not committed", ErrInvalid, gid)
	}
	if gid != GroupAll && g.view < p.viewVersion.Load() {
		// The membership view moved on since this group was committed (a
		// failure notice replaced a member). Fail fast — before any round
		// traffic goes out — so the caller reconciles against the new view
		// instead of parking in a collective a dead member can never join.
		// GroupAll is exempt: it is permanent by construction and the
		// ft-layer board/shutdown traffic on it must keep flowing during
		// repairs.
		return nil, nil, false, fmt.Errorf("%w: group %d committed at view %d, current view %d",
			ErrStaleView, gid, g.view, p.viewVersion.Load())
	}
	if vecLen > g.fast.small {
		return nil, nil, false, fmt.Errorf("%w: allreduce of %d elements on group %d, limit %d",
			ErrInvalid, vecLen, gid, g.fast.small)
	}
	if !g.active {
		g.cur = inflightColl{kind: kind, seq: g.seq, vecLen: vecLen}
		g.active = true
		g.seq++
		return g, &g.cur, true, nil
	}
	if g.cur.kind != kind {
		return nil, nil, false, fmt.Errorf("%w: group %d has a different collective in flight (kind %d, resumed with %d)",
			ErrInvalid, gid, g.cur.kind, kind)
	}
	if g.cur.vecLen != vecLen {
		return nil, nil, false, fmt.Errorf("%w: group %d collective resumed with %d elements, started with %d",
			ErrInvalid, gid, vecLen, g.cur.vecLen)
	}
	return g, &g.cur, false, nil
}

// finishCollective marks the in-flight collective of gid complete.
func (p *Proc) finishCollective(gid GroupID, seq uint64) {
	p.mu.Lock()
	if g, ok := p.groups[gid]; ok && g.active && g.cur.seq == seq {
		g.active = false
		g.cur = inflightColl{}
	}
	p.mu.Unlock()
}

func membersHash(members []Rank) []byte {
	h := fnv.New64a()
	var b [4]byte
	for _, r := range members {
		b[0], b[1], b[2], b[3] = byte(r), byte(r>>8), byte(r>>16), byte(r>>24)
		h.Write(b[:])
	}
	return h.Sum(nil)
}

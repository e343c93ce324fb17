package spmvm

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/gaspi"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// HaloQueue is the GASPI queue used for halo-exchange writes.
const HaloQueue gaspi.QueueID = 1

// FastComm is the zero-copy half of Comm: a WriteNotify whose payload is
// not copied at post time but read once, at delivery time, directly into
// the destination segment (gaspi_write_notify's real registered-buffer
// semantics). The caller must keep the buffer unmodified until the queue
// flush completes. The engine posts every halo through it.
type FastComm interface {
	WriteNotifyFrom(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error
}

// splitCSR is a matrix part with narrow local column indices: either into
// the owned vector chunk (local part) or into the halo buffer (remote
// part).
type splitCSR struct {
	rowPtr []int64
	col    []int32
	val    []float64
}

// mulTask is one shard of a compute loop, executed by the engine's
// persistent worker pool.
type mulTask struct {
	s      *splitCSR
	x, y   []float64
	add    bool
	lo, hi int
	wg     *sync.WaitGroup
}

// Split is the failure-independent half of an engine, itself in two halves.
// The layout of the halo segment is a function of the plan alone and is all
// Bind needs; the matrix parts — a local part (columns into the owned
// chunk), generated in that form (Generate), and a remote part (columns
// into the halo buffer), which the cut maps against the plan — are first
// read by SpMV's multiply. NewSplit computes both at once. NewPendingSplit
// computes the layout and leaves the parts to a later Cut, on any
// goroutine, so a rescue can join its group, bind and restore while its
// block is still being generated; an engine bound to such a Split waits for
// the Cut in its first SpMV, after posting its halo. Once cut a Split is
// immutable, so it outlives the Block it was cut from and any number of
// Bind calls: a recovery re-binds the communication, it does not generate
// the unchanged block again, and a hot shadow can hold its primary's Split
// before it has a group to bind to.
type Split struct {
	plan *Plan

	haloN      int     // len(plan.HaloCols)
	sendOff    []int64 // per SendTo partner: element offset of its staging slot
	segElems   int     // halo segment length in float64 elements
	expectFrom []bool  // producer rank → this process receives from it

	// Written by the cut; on a pending Split read only after pending.done.
	local, remote splitCSR
	// pending is nil on a Split NewSplit cut in one go.
	pending *pendingCut
}

// pendingCut is what a Split's Cut leaves for the engines waiting on it.
type pendingCut struct {
	done chan struct{} // closed when Cut has returned
	err  error         // Cut's result, read after done
}

// layOut is the plan half of a Split. Segment layout in float64 elements:
// two parity halo regions, then one send staging slot per consumer.
func layOut(plan *Plan) *Split {
	s := &Split{plan: plan, haloN: len(plan.HaloCols)}
	s.sendOff = make([]int64, len(plan.SendTo))
	off := 2 * s.haloN
	for i := range plan.SendTo {
		s.sendOff[i] = int64(off)
		off += len(plan.SendTo[i].LocalIdx)
	}
	s.segElems = off
	s.expectFrom = make([]bool, plan.Workers)
	for i := range plan.RecvFrom {
		s.expectFrom[plan.RecvFrom[i].From] = true
	}
	return s
}

// Block is a row block generated for the engine (Generate): its local
// entries already in the form a Split keeps, its remote ones — a few
// percent of a lattice block's — still under their global columns, which
// Preprocess derives the halo from and a cut maps into it. Cutting a Block
// does not modify it; the Split shares its local part and remote values.
type Block struct {
	dim  int64
	rows matrix.RowSplit
}

// Generate generates rows [lo, hi) of gen in one pass straight into the
// parts the engine keeps (matrix.RowSplit). A matrix.Graphene writes them
// itself (Graphene.SplitRows), its interior rows from the stencil by index;
// any other generator's rows come through matrix.EachRow, the parts sized
// once from the first row like matrix.Build.
func Generate(gen matrix.Generator, lo, hi int64) *Block {
	b := &Block{dim: gen.Dim()}
	if g, ok := gen.(matrix.Graphene); ok {
		b.rows = g.SplitRows(lo, hi)
		return b
	}
	matrix.EachRow(gen, lo, hi, func(r int, cols []int64, vals []float64) {
		if r == 0 {
			b.rows = matrix.NewRowSplit(lo, hi, len(cols)*int(hi-lo))
		}
		b.rows.AppendRow(cols, vals)
	})
	if b.rows.LocalPtr == nil { // no rows
		b.rows = matrix.NewRowSplit(lo, hi, 0)
	}
	return b
}

// parts cuts b against plan: the plan must describe exactly b's rows, and
// its halo every remote column b references, which maps to its halo slot
// by binary search.
func (b *Block) parts(plan *Plan) (local, remote splitCSR, err error) {
	r := &b.rows
	if r.Lo != plan.Lo || r.Hi != plan.Hi {
		return local, remote, fmt.Errorf("spmvm: plan rows [%d,%d) do not match matrix rows [%d,%d)",
			plan.Lo, plan.Hi, r.Lo, r.Hi)
	}
	slots := make([]int32, len(r.RemoteCol))
	for k, col := range r.RemoteCol {
		slot, ok := slices.BinarySearch(plan.HaloCols, col)
		if !ok {
			return local, remote, fmt.Errorf("spmvm: column %d missing from plan halo", col)
		}
		slots[k] = int32(slot)
	}
	return splitCSR{rowPtr: r.LocalPtr, col: r.LocalCol, val: r.LocalVal},
		splitCSR{rowPtr: r.RemotePtr, col: slots, val: r.RemoteVal}, nil
}

// NewSplit lays the halo segment out from plan and cuts b against it.
func NewSplit(plan *Plan, b *Block) (*Split, error) {
	s := layOut(plan)
	var err error
	if s.local, s.remote, err = b.parts(plan); err != nil {
		return nil, err
	}
	return s, nil
}

// NewPendingSplit is NewSplit without the matrix: the Split can be bound at
// once, and whoever holds the block calls Cut, exactly once.
func NewPendingSplit(plan *Plan) *Split {
	s := layOut(plan)
	s.pending = &pendingCut{done: make(chan struct{})}
	return s
}

// Cut cuts b into a pending Split's matrix parts and releases the engines
// waiting for them. Its error is also what every SpMV on the Split returns.
func (s *Split) Cut(b *Block) error {
	var err error
	s.local, s.remote, err = b.parts(s.plan)
	s.pending.err = err
	close(s.pending.done)
	return err
}

// Plan returns the communication plan the block was cut against.
func (s *Split) Plan() *Plan { return s.plan }

// LocalRows returns the number of owned rows.
func (s *Split) LocalRows() int { return int(s.plan.Hi - s.plan.Lo) }

// Engine executes distributed y = A·x with overlapping halo exchange: a
// Split bound to one Comm and one halo segment.
//
// The halo segment is the engine's registered memory region, laid out as
//
//	[ halo parity 0 | halo parity 1 | send staging ]
//
// Producers write iteration it's values into the (it&1) halo region, so
// back-to-back iterations touch disjoint memory: with a symmetric halo
// dependency pattern (every consumer is also a producer — true for the
// stencil and graphene matrices) no inter-iteration barrier is needed for
// correctness; producers cannot lap consumers by more than one iteration
// because posting iteration it+1 requires having collected it, which
// requires every partner to have finished reading it-1. Applications with
// an asymmetric pattern must separate iterations with a collective (the
// Lanczos and heat apps do so naturally through their reductions).
//
// In steady state SpMV performs no heap allocation: x-values are gathered
// straight into the send staging region (float64 view of the registered
// segment) and posted zero-copy; the remote part reads the halo region in
// place through the same view.
type Engine struct {
	*Split
	comm Comm
	seg  gaspi.SegmentID

	// Threads shards the compute loops (the paper runs 12 OpenMP threads
	// per process; sharding preserves the compute structure). Set before
	// the first SpMV; the worker pool is sized from it on first use.
	Threads int

	// Rec, when set, counts the engine's iterations
	// (spmvm.fastpath_iters).
	Rec *trace.Recorder

	segBytes []byte    // raw registered segment memory
	segF     []float64 // float64 view of segBytes

	// collectHalo bookkeeping: producer rank → generation of the last
	// accepted notification. Bumping gen replaces the per-call reset loop.
	recvGen []int64
	gen     int64

	// cut is the pending Split's Cut until this engine has seen it land, nil
	// otherwise: SpMV's one test before it touches local/remote.
	cut *pendingCut

	// persistent compute worker pool (started lazily at first sharded mul)
	tasks     chan mulTask
	mulWG     sync.WaitGroup
	closeOnce sync.Once
}

// NewEngine builds an engine in one go: split, then bind.
func NewEngine(c Comm, plan *Plan, b *Block, seg gaspi.SegmentID) (*Engine, error) {
	s, err := NewSplit(plan, b)
	if err != nil {
		return nil, err
	}
	return s.Bind(c, seg)
}

// Bind is the communication half of an engine: it creates the halo
// segment on c's process, synchronizes with the group, and starts the
// halo generation count afresh. Collective. It reads the plan half of the
// Split only, so it does not wait for a pending Cut. The same Split may be
// bound again after a recovery once the previous engine is closed and its
// segment deleted.
func (s *Split) Bind(c Comm, seg gaspi.SegmentID) (*Engine, error) {
	workers := s.plan.Workers
	// One notification slot per producer per parity.
	if slots := c.Proc().Config().NotifySlots; 2*workers > slots {
		return nil, fmt.Errorf("spmvm: %d workers need %d notification slots, segment has %d (raise gaspi.Config.NotifySlots)",
			workers, 2*workers, slots)
	}
	e := &Engine{Split: s, comm: c, seg: seg, Threads: 1, cut: s.pending}
	if err := c.Proc().SegmentCreate(seg, max(8*s.segElems, 8)); err != nil {
		return nil, fmt.Errorf("spmvm: halo segment: %w", err)
	}
	// Segment creation is collective in GASPI: nobody may start pushing
	// halo data before every peer's segment exists.
	if err := c.Barrier(); err != nil {
		// Roll the segment back: when a peer dies inside this barrier the
		// whole rebuild is retried after the next repair, and the retry
		// must be able to create the segment afresh.
		_ = c.Proc().SegmentDelete(seg)
		return nil, fmt.Errorf("spmvm: halo segment barrier: %w", err)
	}
	raw, err := c.Proc().SegmentData(seg)
	if err == nil {
		e.segF, err = c.Proc().SegmentFloat64s(seg)
	}
	if err != nil {
		_ = c.Proc().SegmentDelete(seg)
		return nil, err
	}
	e.segBytes = raw
	e.recvGen = make([]int64, workers)
	return e, nil
}

// Close releases the engine's persistent worker pool. Safe to call more
// than once; the engine must not be used afterwards. Callers that rebuild
// engines (the recovery path) must Close the old one or its pool
// goroutines leak.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.tasks != nil {
			close(e.tasks)
		}
	})
}

// notifVal tags a halo notification with (epoch, iteration) so stale
// writes from pre-recovery zombies are recognized and discarded.
func notifVal(epoch, it int64) int64 { return epoch<<40 | (it + 1) }

// SpMV computes y = A·x for iteration `it`: post halo pushes, compute the
// local part (overlap), collect halo notifications, compute the remote
// part. x and y are the owned chunks (length LocalRows).
//
//ftlint:hotpath
func (e *Engine) SpMV(x, y []float64, it int64) error {
	if len(x) != e.LocalRows() || len(y) != e.LocalRows() {
		//ftlint:ignore hotpath: error path, taken once per misuse, never per iteration
		return fmt.Errorf("spmvm: vector length %d/%d, want %d", len(x), len(y), e.LocalRows())
	}
	epoch := e.comm.Epoch()
	val := notifVal(epoch, it)
	parity := int(it & 1)
	w := e.plan.Workers
	notifID := gaspi.NotificationID(parity*w + e.plan.Logical)

	// 1. Push my values to every consumer (the paper: owners write the RHS
	// values via one-sided communication before every spMVM iteration).
	// The consumers' ranks stripe across the fabric's delivery shards, and
	// the back-to-back posts of this loop ride the lock-free intake rings
	// with at most one doorbell wakeup per parked shard — not one channel
	// send per partner. Zero-copy: gather straight into the registered
	// send staging region and post it borrowed — the fabric copies it
	// exactly once, into the consumer's halo region, at delivery time. The
	// staging region is reusable at the next iteration because step 3
	// flushes the queue.
	for i := range e.plan.SendTo {
		sp := &e.plan.SendTo[i]
		base := e.sendOff[i]
		dst := e.segF[base : base+int64(len(sp.LocalIdx))]
		for k, li := range sp.LocalIdx {
			dst[k] = x[li]
		}
		buf := e.segBytes[8*base : 8*base+8*int64(len(sp.LocalIdx))]
		off := 8 * (int64(parity)*sp.DstStride + sp.DstOff)
		if err := e.comm.WriteNotifyFrom(sp.To, e.seg, off, buf, notifID, val, HaloQueue); err != nil {
			return err
		}
	}

	// 2. Overlap: local part while the fabric moves the halo. The posts
	// above needed x and the plan; the matrix parts are first read here.
	if e.cut != nil {
		if err := e.joinCut(); err != nil {
			return err
		}
	}
	e.mul(&e.local, x, y, false)

	// 3. Flush the queue (completions) and collect one notification per
	// producer, validating the (epoch, iteration) tag.
	if len(e.plan.SendTo) > 0 {
		if err := e.comm.WaitQueue(HaloQueue); err != nil {
			return err
		}
	}
	if err := e.collectHalo(parity, val); err != nil {
		return err
	}

	// 4. Remote part straight from this parity's halo region: a view of
	// the registered segment, no copy and no decode — the producers' writes
	// are already the in-memory representation, and the notification
	// protocol guarantees they happened before.
	if len(e.plan.RecvFrom) > 0 {
		base := parity * e.haloN
		e.mul(&e.remote, e.segF[base:base+e.haloN], y, true)
	}
	if e.Rec != nil {
		e.Rec.Inc(trace.KSpMVMFastpathIters, 1)
	}
	return nil
}

// joinCut waits until the pending Split's Cut has returned, and counts the
// time it blocked, if it did. A failed Cut is returned on this and every
// later call.
func (e *Engine) joinCut() error {
	select {
	case <-e.cut.done:
	default:
		t0 := time.Now()
		<-e.cut.done
		e.Rec.Inc(trace.KAppsBlockJoinWaitNS, int64(time.Since(t0)))
	}
	if err := e.cut.err; err != nil {
		return err
	}
	e.cut = nil
	return nil
}

// collectHalo waits until every producer's notification for this iteration
// has fired. Stale tags (from an earlier epoch) are discarded, as happens
// when a zombie's writes arrive after a recovery. Producer slots are
// checked through the precomputed expectFrom table; the generation counter
// replaces any per-call reset of the seen-set.
//
//ftlint:hotpath
func (e *Engine) collectHalo(parity int, want int64) error {
	remaining := len(e.plan.RecvFrom)
	if remaining == 0 {
		return nil
	}
	e.gen++
	gen := e.gen
	w := e.plan.Workers
	begin := gaspi.NotificationID(parity * w)
	p := e.comm.Proc()
	for remaining > 0 {
		id, err := e.comm.NotifyWaitsome(e.seg, begin, w)
		if err != nil {
			return err
		}
		got, err := p.NotifyReset(e.seg, id)
		if err != nil {
			return err
		}
		if got != want {
			continue // raced reset, or stale epoch/iteration: discard
		}
		idx := int(id) - parity*w
		if idx >= 0 && idx < w && e.expectFrom[idx] && e.recvGen[idx] != gen {
			e.recvGen[idx] = gen
			remaining--
		}
	}
	return nil
}

// mul computes y = S·x (add=false) or y += S·x (add=true), sharded across
// the engine's persistent worker pool (started lazily, sized Threads-1;
// the calling goroutine computes the first shard itself).
//
//ftlint:hotpath
func (e *Engine) mul(s *splitCSR, x, y []float64, add bool) {
	rows := len(s.rowPtr) - 1
	if e.Threads <= 1 || rows < 4*e.Threads {
		mulRange(s, x, y, add, 0, rows)
		return
	}
	if e.tasks == nil {
		e.tasks = make(chan mulTask, e.Threads) //ftlint:ignore hotpath: lazy one-time pool start
		for i := 0; i < e.Threads-1; i++ {
			go mulWorker(e.tasks)
		}
	}
	chunk := (rows + e.Threads - 1) / e.Threads
	for t := 1; t < e.Threads; t++ {
		lo := t * chunk
		hi := min(lo+chunk, rows)
		if lo >= hi {
			break
		}
		e.mulWG.Add(1)
		e.tasks <- mulTask{s: s, x: x, y: y, add: add, lo: lo, hi: hi, wg: &e.mulWG}
	}
	mulRange(s, x, y, add, 0, min(chunk, rows))
	e.mulWG.Wait()
}

func mulWorker(tasks <-chan mulTask) {
	for t := range tasks {
		mulRange(t.s, t.x, t.y, t.add, t.lo, t.hi)
		t.wg.Done()
	}
}

// mulRange computes rows [lo, hi) of y = S·x, or of y += S·x. Each row's
// window of col and val is sliced once, so an entry costs one bounds check
// (the gather from x), and each row is summed in one accumulator in column
// order: the order every kernel change must keep, because the solver's
// checkpoints, goldens and recomputed iterations depend on it bit for bit.
//
//ftlint:hotpath
func mulRange(s *splitCSR, x, y []float64, add bool, lo, hi int) {
	y = y[lo:hi]
	ends := s.rowPtr[lo+1 : hi+1]
	ends = ends[:len(y)]
	a := s.rowPtr[lo]
	if add {
		for r, b := range ends {
			if b == a {
				// Skipping y[r] += 0 changes no bit: y[r] is a sum
				// started at +0, which is never −0.
				continue
			}
			c := s.col[a:b]
			v := s.val[a:b][:len(c)]
			var acc float64
			for k, j := range c {
				acc += v[k] * x[j]
			}
			y[r] += acc
			a = b
		}
		return
	}
	for r, b := range ends {
		c := s.col[a:b]
		v := s.val[a:b][:len(c)]
		var acc float64
		for k, j := range c {
			acc += v[k] * x[j]
		}
		y[r] = acc
		a = b
	}
}

// DotScratch holds the reusable two-element reduction buffers of the
// Lanczos iteration's one collective. Slicing its (heap-resident) arrays
// through the Comm's AllreduceF64Into allocates nothing, so a caller
// holding one — the Lanczos solver keeps one per instance — runs its
// per-iteration reduction allocation-free end to end on the fast path.
type DotScratch struct {
	in, out [2]float64
}

// NormDot returns the global w·w and u·w over the owned chunks: one local
// pass accumulating both partials in index order, then one two-element
// sum-allreduce (the registered-segment fast path runs it without
// encode/decode).
//
//ftlint:hotpath
func (d *DotScratch) NormDot(c Comm, w, u []float64) (ww, uw float64, err error) {
	u = u[:len(w)]
	for i, wi := range w {
		ww += wi * wi
		uw += u[i] * wi
	}
	d.in = [2]float64{ww, uw}
	if err = c.AllreduceF64Into(d.in[:], d.out[:], gaspi.OpSum); err != nil {
		return 0, 0, err
	}
	return d.out[0], d.out[1], nil
}

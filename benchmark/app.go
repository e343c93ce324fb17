package main

import (
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gaspi"
	"repro/internal/spmvm"
)

// epoch is the zero of every timestamp the harness takes; int64
// nanoseconds since it (monotonic) are cheap to store and subtract.
var epoch = time.Now()

func now() int64           { return int64(time.Since(epoch)) }
func at(t time.Time) int64 { return int64(t.Sub(epoch)) }

// span is one timed call into a layer.
type span struct{ Start, End int64 }

func (s span) dur() int64 { return s.End - s.Start }

// commTimes is the time and call count the Comm decorator saw inside one
// Step: the gaspi children of the Step span.
type commTimes struct {
	PostNS, WaitQueueNS, NotifyNS, AllreduceNS int64
	Posts, Allreduces                          int32
}

func (c commTimes) total() int64 {
	return c.PostNS + c.WaitQueueNS + c.NotifyNS + c.AllreduceNS
}

// stepRec is one Step call: the iteration it ran, whether it returned nil,
// and (traced only) the time spent inside Comm.
type stepRec struct {
	span
	Iter int64
	OK   bool
	Comm commTimes
}

// cpRec is one App.Checkpoint call (serialization only; the write is the
// framework's) and the payload size it produced.
type cpRec struct {
	span
	Bytes int
}

// rankRec is everything one physical rank's App did in one job, written
// only by that rank's goroutine. Slices are preallocated by the pool and
// reused across jobs so that recording allocates nothing while a job runs.
type rankRec struct {
	Phys    int
	Logical int
	// InitRestore is true on a rescue (Init(restore=true)).
	InitRestore bool
	Init        span
	Rebuilds    []span
	Restores    []span
	CPs         []cpRec
	Steps       []stepRec
	// ctx is kept to read the checkpoint library's and the stream's public
	// counters after the job has ended.
	ctx *core.Ctx
	app *apps.Lanczos
}

func (r *rankRec) reset() {
	r.Phys, r.Logical, r.InitRestore, r.Init = -1, -1, false, span{}
	r.Rebuilds, r.Restores = r.Rebuilds[:0], r.Restores[:0]
	r.CPs, r.Steps = r.CPs[:0], r.Steps[:0]
	r.ctx, r.app = nil, nil
}

// recPool hands out rank records for one job and takes them all back at
// the next. It holds one record per process of the largest layout: a
// rescue gets a fresh record, so no two Apps ever share one.
type recPool struct {
	mu   sync.Mutex
	recs []*rankRec
	used int
}

func newRecPool(procs, steps int) *recPool {
	p := &recPool{recs: make([]*rankRec, procs)}
	for i := range p.recs {
		p.recs[i] = &rankRec{
			Rebuilds: make([]span, 0, 8),
			Restores: make([]span, 0, 8),
			// A failover primary serializes once per iteration (mirror
			// push) on top of the periodic checkpoints.
			CPs:   make([]cpRec, 0, 2*steps+8),
			Steps: make([]stepRec, 0, 2*steps+8),
		}
	}
	return p
}

func (p *recPool) releaseAll() { p.used = 0 }

func (p *recPool) take() *rankRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.recs[p.used]
	p.used++
	r.reset()
	return r
}

func (p *recPool) inUse() []*rankRec { return p.recs[:p.used] }

// timedApp decorates the Lanczos application from outside: it timestamps
// every core.App call into its rank record and forwards. Embedding
// *apps.Lanczos keeps HaloPartners, LiveIteration and Close promoted, which
// the framework discovers by interface assertion.
type timedApp struct {
	*apps.Lanczos
	rec    *rankRec
	traced bool
	comm   *timedComm
}

var _ core.App = (*timedApp)(nil)

func (a *timedApp) Init(ctx *core.Ctx, restore bool) error {
	r := a.rec
	r.Phys, r.Logical, r.InitRestore = int(ctx.Proc.Rank()), ctx.Logical, restore
	r.ctx, r.app = ctx, a.Lanczos
	if a.traced {
		a.comm = &timedComm{Comm: ctx.Comm, fast: ctx.Comm.(spmvm.FastComm), into: ctx.Comm.(spmvm.CollInto)}
		ctx.Comm = a.comm
	}
	r.Init.Start = now()
	err := a.Lanczos.Init(ctx, restore)
	r.Init.End = now()
	return err
}

func (a *timedApp) Rebuild(ctx *core.Ctx) error {
	s := span{Start: now()}
	err := a.Lanczos.Rebuild(ctx)
	s.End = now()
	a.rec.Rebuilds = append(a.rec.Rebuilds, s)
	return err
}

func (a *timedApp) Checkpoint(ctx *core.Ctx) ([]byte, error) {
	s := span{Start: now()}
	b, err := a.Lanczos.Checkpoint(ctx)
	s.End = now()
	a.rec.CPs = append(a.rec.CPs, cpRec{span: s, Bytes: len(b)})
	return b, err
}

func (a *timedApp) Restore(ctx *core.Ctx, payload []byte, iter int64) error {
	s := span{Start: now()}
	err := a.Lanczos.Restore(ctx, payload, iter)
	s.End = now()
	a.rec.Restores = append(a.rec.Restores, s)
	return err
}

func (a *timedApp) Step(ctx *core.Ctx, iter int64) error {
	if a.comm != nil {
		a.comm.t = commTimes{}
	}
	s := stepRec{Iter: iter}
	s.Start = now()
	err := a.Lanczos.Step(ctx, iter)
	s.End = now()
	s.OK = err == nil
	if a.comm != nil {
		s.Comm = a.comm.t
	}
	a.rec.Steps = append(a.rec.Steps, s)
	return err
}

// timedComm is the traced pass's spmvm.Comm decorator: it times the calls
// the spMVM engine and the solver make into the ft.Worker and adds them to
// the current Step's account. It implements FastComm and CollInto so the
// engine and the reductions keep their zero-copy fast paths. Only the
// owning rank's goroutine calls it.
type timedComm struct {
	spmvm.Comm
	fast spmvm.FastComm
	into spmvm.CollInto
	t    commTimes
}

var (
	_ spmvm.FastComm = (*timedComm)(nil)
	_ spmvm.CollInto = (*timedComm)(nil)
)

func (c *timedComm) WriteNotify(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	t0 := now()
	err := c.Comm.WriteNotify(to, seg, off, data, id, val, q)
	c.t.PostNS += now() - t0
	c.t.Posts++
	return err
}

func (c *timedComm) WriteNotifyFrom(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	t0 := now()
	err := c.fast.WriteNotifyFrom(to, seg, off, data, id, val, q)
	c.t.PostNS += now() - t0
	c.t.Posts++
	return err
}

func (c *timedComm) WaitQueue(q gaspi.QueueID) error {
	t0 := now()
	err := c.Comm.WaitQueue(q)
	c.t.WaitQueueNS += now() - t0
	return err
}

func (c *timedComm) NotifyWaitsome(seg gaspi.SegmentID, begin gaspi.NotificationID, num int) (gaspi.NotificationID, error) {
	t0 := now()
	id, err := c.Comm.NotifyWaitsome(seg, begin, num)
	c.t.NotifyNS += now() - t0
	return id, err
}

func (c *timedComm) AllreduceF64(in []float64, op gaspi.ReduceOp) ([]float64, error) {
	t0 := now()
	out, err := c.Comm.AllreduceF64(in, op)
	c.t.AllreduceNS += now() - t0
	c.t.Allreduces++
	return out, err
}

func (c *timedComm) AllreduceF64Into(in, out []float64, op gaspi.ReduceOp) error {
	t0 := now()
	err := c.into.AllreduceF64Into(in, out, op)
	c.t.AllreduceNS += now() - t0
	c.t.Allreduces++
	return err
}

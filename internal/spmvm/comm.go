// Package spmvm is the parallel sparse matrix-vector multiplication library
// underneath the Lanczos application, reproducing the paper's structure:
//
//   - A pre-processing stage in which every process determines the indices
//     of the right-hand-side vector it needs from other processes and
//     communicates them to the owners (Section V).
//   - Per-iteration halo exchange where owners push the requested RHS
//     values via one-sided WriteNotify into the consumers' halo segments.
//   - A local/remote split of the matrix so local computation overlaps the
//     halo communication.
//
// All communication goes through the Comm interface. The fault-tolerant
// worker wrapper in internal/ft implements it with failure-acknowledgment
// checks inside every blocking call ("Each blocking communication call in
// the spMVM library now performs a check for the failure acknowledgment
// signal") and with the logical→physical rank translation that makes rescue
// processes transparent; plain pass-through implementations run the
// baseline without fault tolerance.
package spmvm

import (
	"time"

	"repro/internal/gaspi"
)

// Comm abstracts the communication layer for the spMVM library and the
// eigensolver on top. Ranks in this interface are logical worker ranks
// 0..NumWorkers()-1; implementations translate them to GASPI ranks.
type Comm interface {
	// Proc returns the underlying GASPI process, used for local segment
	// operations only (local memory access cannot stall on failures).
	Proc() *gaspi.Proc
	// Logical returns this process's logical worker rank.
	Logical() int
	// NumWorkers returns the number of logical worker ranks.
	NumWorkers() int
	// Epoch returns the current recovery epoch (0 before any failure);
	// halo notifications are tagged with it to discard stale traffic from
	// pre-recovery zombies.
	Epoch() int64

	// WriteNotify posts a one-sided write plus notification to a logical
	// rank's segment.
	WriteNotify(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error
	// WaitQueue flushes queue q.
	WaitQueue(q gaspi.QueueID) error
	// NotifyWaitsome waits for a notification in [begin, begin+num).
	NotifyWaitsome(seg gaspi.SegmentID, begin gaspi.NotificationID, num int) (gaspi.NotificationID, error)
	// AwaitFrom names the logical ranks whose notifications the next
	// NotifyWaitsome still lacks: that wait fails with
	// gaspi.ErrConnection once one of them is known dead, instead of
	// waiting for its timeout. It applies to the next wait only.
	AwaitFrom(from []int)
	// PassiveSend sends a two-sided message to a logical rank.
	PassiveSend(to int, data []byte) error
	// PassiveReceive receives a two-sided message; the sender is returned
	// as a logical rank.
	PassiveReceive() (from int, data []byte, err error)
	// AllreduceF64 combines vectors across all workers.
	AllreduceF64(in []float64, op gaspi.ReduceOp) ([]float64, error)
	// AllreduceI64 combines integer vectors across all workers.
	AllreduceI64(in []int64, op gaspi.ReduceOp) ([]int64, error)
	// Barrier synchronizes all workers.
	Barrier() error

	// The zero-copy halo post and the allocation-free allreduce: every
	// implementation offers both, so the engine and the reductions each
	// have one path.
	FastComm
	CollInto
}

// CollInto is the allocation-free collective half of Comm: an allreduce
// writing its result into a caller-provided vector, backed by the
// registered-segment collective fast path. DotScratch.NormDot uses it.
type CollInto interface {
	AllreduceF64Into(in, out []float64, op gaspi.ReduceOp) error
}

// Direct is the baseline Comm: a plain pass-through to GASPI with a static
// logical→physical mapping (logical L ↔ physical Base+L) and no failure
// handling. It is what the application would use without the paper's fault
// tolerance machinery.
type Direct struct {
	P *gaspi.Proc
	// Base is the physical rank of logical worker 0.
	Base gaspi.Rank
	// Workers is the number of workers.
	Workers int
	// Group is the committed worker group.
	Group gaspi.GroupID
	// Timeout bounds blocking calls (gaspi.Block by default).
	Timeout time.Duration

	from []gaspi.Rank // the next wait's sources (AwaitFrom)
}

var _ Comm = (*Direct)(nil)

func (d *Direct) timeout() time.Duration {
	if d.Timeout == 0 {
		return gaspi.Block
	}
	return d.Timeout
}

// Proc implements Comm.
func (d *Direct) Proc() *gaspi.Proc { return d.P }

// Logical implements Comm.
func (d *Direct) Logical() int { return int(d.P.Rank() - d.Base) }

// NumWorkers implements Comm.
func (d *Direct) NumWorkers() int { return d.Workers }

// Epoch implements Comm.
func (d *Direct) Epoch() int64 { return 0 }

// WriteNotify implements Comm.
func (d *Direct) WriteNotify(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	return d.P.WriteNotify(d.Base+gaspi.Rank(to), seg, off, data, id, val, q)
}

// WriteNotifyFrom implements FastComm: the zero-copy post (see
// gaspi.WriteNotifyFrom for the buffer-stability contract).
func (d *Direct) WriteNotifyFrom(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	return d.P.WriteNotifyFrom(d.Base+gaspi.Rank(to), seg, off, data, id, val, q)
}

// WaitQueue implements Comm.
func (d *Direct) WaitQueue(q gaspi.QueueID) error { return d.P.WaitQueue(q, d.timeout()) }

// AwaitFrom implements Comm.
func (d *Direct) AwaitFrom(from []int) {
	d.from = d.from[:0]
	for _, l := range from {
		d.from = append(d.from, d.Base+gaspi.Rank(l))
	}
}

// NotifyWaitsome implements Comm.
func (d *Direct) NotifyWaitsome(seg gaspi.SegmentID, begin gaspi.NotificationID, num int) (gaspi.NotificationID, error) {
	from := d.from
	d.from = d.from[:0]
	return d.P.NotifyWaitsomeFrom(seg, begin, num, from, d.timeout())
}

// PassiveSend implements Comm.
func (d *Direct) PassiveSend(to int, data []byte) error {
	return d.P.PassiveSend(d.Base+gaspi.Rank(to), data, d.timeout())
}

// PassiveReceive implements Comm.
func (d *Direct) PassiveReceive() (int, []byte, error) {
	from, data, err := d.P.PassiveReceive(d.timeout())
	if err != nil {
		return -1, nil, err
	}
	return int(from - d.Base), data, nil
}

// AllreduceF64 implements Comm.
func (d *Direct) AllreduceF64(in []float64, op gaspi.ReduceOp) ([]float64, error) {
	return d.P.AllreduceF64(d.Group, in, op, d.timeout())
}

// AllreduceF64Into implements CollInto.
func (d *Direct) AllreduceF64Into(in, out []float64, op gaspi.ReduceOp) error {
	return d.P.AllreduceF64Into(d.Group, in, out, op, d.timeout())
}

// AllreduceI64 implements Comm.
func (d *Direct) AllreduceI64(in []int64, op gaspi.ReduceOp) ([]int64, error) {
	return d.P.AllreduceI64(d.Group, in, op, d.timeout())
}

// Barrier implements Comm.
func (d *Direct) Barrier() error { return d.P.Barrier(d.Group, d.timeout()) }

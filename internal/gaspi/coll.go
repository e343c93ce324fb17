package gaspi

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/fabric"
)

// ReduceOp selects the combining operation of an Allreduce
// (gaspi_operation_t).
type ReduceOp int

// Reduction operations.
const (
	OpSum ReduceOp = iota // GASPI_OP_SUM
	OpMin                 // GASPI_OP_MIN
	OpMax                 // GASPI_OP_MAX
)

// Barrier synchronizes all ranks of a committed group (gaspi_barrier): a
// dissemination barrier, ceil(log2(n)) pairwise rounds of one-sided
// notifications into the group's registered collective segment (zero
// allocations in steady state). On ErrTimeout the barrier may be resumed
// by calling it again; a dead group member fails it promptly with
// ErrConnBroken.
func (p *Proc) Barrier(gid GroupID, timeout time.Duration) error {
	p.checkAlive()
	g, st, _, err := p.startCollective(gid, collBarrier, 0)
	if err != nil {
		return err
	}
	return p.barrierFast(g, st, timeout)
}

// AllreduceF64 combines the input vectors of all group members element-wise
// with the given operation and returns the result, identical on every rank
// (gaspi_allreduce with GASPI_TYPE_DOUBLE). The reduction uses a binomial
// tree to member index 0 followed by a binomial broadcast: 2*ceil(log2(n))
// rounds of one-sided writes into the group's collective segment. A vector
// longer than max(16, members) rounded up to a power of two is rejected
// with ErrInvalid and leaves the group usable (GASPI bounds an allreduce
// by gaspi_allreduce_elem_max).
func (p *Proc) AllreduceF64(gid GroupID, in []float64, op ReduceOp, timeout time.Duration) ([]float64, error) {
	out := make([]float64, len(in))
	if err := p.AllreduceF64Into(gid, in, out, op, timeout); err != nil {
		return nil, err
	}
	return out, nil
}

// AllreduceF64Into is AllreduceF64 writing the result into the
// caller-provided out vector (len(out) == len(in)) — the allocation-free
// form the iteration hot loops use. Timeout semantics are those of the
// other collectives: a timed-out call is resumed by calling it again with
// identical arguments (the in vector of a resumed call is ignored; the
// partially reduced state is kept).
func (p *Proc) AllreduceF64Into(gid GroupID, in, out []float64, op ReduceOp, timeout time.Duration) error {
	p.checkAlive()
	if err := checkAllreduceLen(len(in), len(out)); err != nil {
		return err
	}
	g, st, fresh, err := p.startCollective(gid, collReduce, len(in))
	if err != nil {
		return err
	}
	if fresh {
		g.accF = append(g.accF[:0], in...)
	}
	return allreduceFast(p, g, st, g.accF, out, combineF64, op, timeout)
}

// checkAllreduceLen validates the out length of an allreduce before it
// pins a sequence number; startCollective checks the length against the
// group's capacity.
func checkAllreduceLen(in, out int) error {
	if out != in {
		return fmt.Errorf("%w: allreduce out length %d, want %d", ErrInvalid, out, in)
	}
	return nil
}

// AllreduceI64 is AllreduceF64 for 8-byte integers
// (gaspi_allreduce with GASPI_TYPE_LONG). The rounds read the wire payloads
// through an int64 view of the same slots, so integer arithmetic is exact.
func (p *Proc) AllreduceI64(gid GroupID, in []int64, op ReduceOp, timeout time.Duration) ([]int64, error) {
	out := make([]int64, len(in))
	if err := p.AllreduceI64Into(gid, in, out, op, timeout); err != nil {
		return nil, err
	}
	return out, nil
}

// AllreduceI64Into is AllreduceI64 writing into a caller-provided vector;
// see AllreduceF64Into for the resume semantics.
func (p *Proc) AllreduceI64Into(gid GroupID, in, out []int64, op ReduceOp, timeout time.Duration) error {
	p.checkAlive()
	if err := checkAllreduceLen(len(in), len(out)); err != nil {
		return err
	}
	g, st, fresh, err := p.startCollective(gid, collReduceI, len(in))
	if err != nil {
		return err
	}
	if fresh {
		g.accI = append(g.accI[:0], in...)
	}
	return allreduceFast(p, g, st, g.accI, out, combineI64, op, timeout)
}

// --- two-sided round transport ------------------------------------------------
//
// The group-commit handshake runs before a group's collective segment can
// be trusted to exist on every member, so it exchanges its rounds as kColl
// messages buffered in collBuf. It is the transport's only user, a group
// commits once, and a commit sends each round once (its cursor survives a
// timeout), so a round needs no sequence number and every buffered round
// is consumed exactly once.

// collSend posts one two-sided commit round message. Collectives
// use internal transport resources (not user queues), as in GPI-2. A send
// can only fail locally when this process itself is dead (which unwinds
// via checkAlive) — a dead PARTNER surfaces asynchronously as a NACK that
// marks the state vector, failing the waiting side via collRecv.
func (p *Proc) collSend(gid GroupID, round int32, to Rank, payload []byte) error {
	m := fabric.Message{
		Kind:    kColl,
		Token:   p.nextToken(),
		Args:    [4]int64{int64(gid), 0, int64(round)},
		Payload: payload,
	}
	if err := p.ep.Send(to, m); err != nil {
		p.checkAlive() // a closed own endpoint means this process died
		return fmt.Errorf("%w: round send to rank %d: %v", ErrConnBroken, to, err)
	}
	return nil
}

// collRecv waits for the commit round message matching the key and
// consumes it: the commit's cursor remembers that the round is done, so a
// resumed commit never asks for it again. A conclusively dead group member
// — any member, not only the round's source: a commit is a membership
// agreement — aborts the wait promptly with ErrConnBroken.
func (p *Proc) collRecv(g *group, round int32, from Rank, timeout time.Duration) ([]byte, error) {
	key := collKey{gid: g.id, round: round, from: from}
	take := func() ([]byte, bool) {
		p.collMu.Lock()
		b, ok := p.collBuf[key]
		delete(p.collBuf, key)
		p.collMu.Unlock()
		return b, ok
	}
	if b, ok := take(); ok {
		return b, nil
	}
	if timeout == Test {
		if err := p.collCheckMembers(g, NilRank); err != nil {
			return nil, err
		}
		return nil, ErrTimeout
	}
	// Bounded user-space spin before parking, mirroring collAwait: at
	// microsecond fabric latencies most rounds land within a few yields,
	// keeping the park machinery (and its probe traffic) off the common
	// path.
	for i, n := 0, p.cfg.SpinYields; i < n; i++ {
		runtime.Gosched()
		if b, ok := take(); ok {
			return b, nil
		}
	}
	if err := p.collCheckMembers(g, NilRank); err != nil {
		return nil, err
	}
	var got []byte
	err := p.collPark(g, NilRank, &p.collPulse, timeout, func() bool {
		b, ok := take()
		if ok {
			got = b
		}
		return ok
	})
	if err != nil {
		return nil, err
	}
	return got, nil
}

func combineF64(dst, src []float64, op ReduceOp) {
	for i := range dst {
		switch op {
		case OpSum:
			dst[i] += src[i]
		case OpMin:
			dst[i] = math.Min(dst[i], src[i])
		case OpMax:
			dst[i] = math.Max(dst[i], src[i])
		}
	}
}

func combineI64(dst, src []int64, op ReduceOp) {
	for i := range dst {
		switch op {
		case OpSum:
			dst[i] += src[i]
		case OpMin:
			dst[i] = min(dst[i], src[i])
		case OpMax:
			dst[i] = max(dst[i], src[i])
		}
	}
}

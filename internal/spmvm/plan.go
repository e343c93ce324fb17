package spmvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/gaspi"
)

// SendPartner describes the values this process pushes to one consumer
// before every spMVM: which of my local rows it needs and where in its halo
// segment the block lands.
type SendPartner struct {
	// To is the consumer's logical rank.
	To int
	// LocalIdx are the local row indices whose x-values are gathered.
	LocalIdx []int32
	// DstOff is the element offset in the consumer's halo buffer.
	DstOff int64
	// DstStride is the consumer's total halo length in elements. The
	// engine's halo segment holds two parity-alternated halo buffers
	// (back-to-back iterations write disjoint regions), so the write for
	// iteration it lands at element (it&1)*DstStride + DstOff.
	DstStride int64
}

// RecvPartner describes one producer this process receives halo values
// from.
type RecvPartner struct {
	// From is the producer's logical rank.
	From int
	// Count is the number of values received.
	Count int
	// Off is the element offset of the block in the local halo buffer.
	Off int64
}

// Plan is the communication plan produced by the pre-processing stage. It
// is exactly the state the paper checkpoints once after pre-processing so a
// rescue process can resume communication without redoing pre-processing.
type Plan struct {
	// Workers is the number of logical worker ranks.
	Workers int
	// Logical is the plan owner's logical rank.
	Logical int
	// Lo, Hi delimit the owned global row range [Lo, Hi).
	Lo, Hi int64
	// HaloCols lists, sorted, the remote global columns this process needs.
	HaloCols []int64
	// SendTo lists consumers of my values, sorted by logical rank.
	SendTo []SendPartner
	// RecvFrom lists producers of my halo, sorted by logical rank.
	RecvFrom []RecvPartner
}

// request is the pre-processing message: "I (From) need these global
// columns from you, write them at DstOff in my halo segment, whose parity
// regions are Stride elements apart".
type request struct {
	From   int
	DstOff int64
	Stride int64
	Cols   []int64
}

// Preprocess builds the communication plan for the local row block b,
// mirroring the paper's pre-processing stage: each process determines the
// RHS indices it needs from every other process and communicates them to
// the owners via passive messages.
func Preprocess(c Comm, b *Block) (*Plan, error) {
	w := c.NumWorkers()
	me := c.Logical()
	dim, lo, hi := b.dim, b.rows.Lo, b.rows.Hi

	plan := &Plan{Workers: w, Logical: me, Lo: lo, Hi: hi}

	// The halo is the block's remote columns, sorted and compacted. Sorted
	// order groups them by owner since the distribution is by contiguous
	// blocks.
	plan.HaloCols = slices.Clone(b.rows.RemoteCol)
	slices.Sort(plan.HaloCols)
	plan.HaloCols = slices.Compact(plan.HaloCols)

	// Slice the halo per owner and tell each owner what I need.
	needFrom := make([]int64, w) // 1 if I need something from owner o
	type ownerRange struct {
		owner    int
		off, end int
	}
	var ranges []ownerRange
	for i := 0; i < len(plan.HaloCols); {
		owner := ownerOf(plan.HaloCols[i], dim, w)
		j := i
		for j < len(plan.HaloCols) && ownerOf(plan.HaloCols[j], dim, w) == owner {
			j++
		}
		ranges = append(ranges, ownerRange{owner: owner, off: i, end: j})
		needFrom[owner] = 1
		plan.RecvFrom = append(plan.RecvFrom, RecvPartner{From: owner, Count: j - i, Off: int64(i)})
		i = j
	}

	// Each owner learns how many requests to expect.
	counts, err := c.AllreduceI64(needFrom, gaspi.OpSum)
	if err != nil {
		return nil, fmt.Errorf("spmvm: preprocess allreduce: %w", err)
	}
	expect := int(counts[me])

	for _, r := range ranges {
		req := request{From: me, DstOff: int64(r.off), Stride: int64(len(plan.HaloCols)), Cols: plan.HaloCols[r.off:r.end]}
		if err := c.PassiveSend(r.owner, encodeRequest(req)); err != nil {
			return nil, fmt.Errorf("spmvm: preprocess send to %d: %w", r.owner, err)
		}
	}

	// Passive delivery is at-least-once (ft.Worker.PassiveSend re-sends a
	// request whose completion timed out although it was delivered), so
	// expect counts distinct senders: a duplicate must not stand in for a
	// request still to come.
	served := make([]bool, w)
	for got := 0; got < expect; {
		_, data, err := c.PassiveReceive()
		if err != nil {
			return nil, fmt.Errorf("spmvm: preprocess receive: %w", err)
		}
		req, err := decodeRequest(data)
		if err != nil {
			return nil, err
		}
		if req.From < 0 || req.From >= w {
			return nil, fmt.Errorf("spmvm: request from rank %d outside [0,%d)", req.From, w)
		}
		if served[req.From] {
			continue
		}
		served[req.From] = true
		got++
		sp := SendPartner{To: req.From, DstOff: req.DstOff, DstStride: req.Stride, LocalIdx: make([]int32, len(req.Cols))}
		for k, col := range req.Cols {
			if col < lo || col >= hi {
				return nil, fmt.Errorf("spmvm: rank %d requested column %d not owned by %d", req.From, col, me)
			}
			sp.LocalIdx[k] = int32(col - lo)
		}
		plan.SendTo = append(plan.SendTo, sp)
	}
	sort.Slice(plan.SendTo, func(i, j int) bool { return plan.SendTo[i].To < plan.SendTo[j].To })

	// Pre-processing ends with a barrier so no one starts exchanging halos
	// while a peer is still wiring up.
	if err := c.Barrier(); err != nil {
		return nil, fmt.Errorf("spmvm: preprocess barrier: %w", err)
	}
	return plan, nil
}

// ownerOf returns the logical rank owning global row `col` under balanced
// block distribution.
func ownerOf(col, dim int64, w int) int {
	base := dim / int64(w)
	rem := dim % int64(w)
	// First `rem` blocks have base+1 rows.
	cut := rem * (base + 1)
	if col < cut {
		return int(col / (base + 1))
	}
	return int(rem + (col-cut)/base)
}

// HaloSize returns the number of halo elements.
func (p *Plan) HaloSize() int { return len(p.HaloCols) }

// --- serialization -----------------------------------------------------------

const planMagic = uint32(0x324E4C50) // "PLN2" (v2 adds SendPartner.DstStride)

// Encode serializes the plan (the paper's one-time post-pre-processing
// matrix/communication checkpoint).
func (p *Plan) Encode() []byte {
	var b []byte
	b = appendU32(b, planMagic)
	b = appendU64(b, uint64(p.Workers))
	b = appendU64(b, uint64(p.Logical))
	b = appendU64(b, uint64(p.Lo))
	b = appendU64(b, uint64(p.Hi))
	b = appendU64(b, uint64(len(p.HaloCols)))
	for _, c := range p.HaloCols {
		b = appendU64(b, uint64(c))
	}
	b = appendU64(b, uint64(len(p.SendTo)))
	for _, s := range p.SendTo {
		b = appendU64(b, uint64(s.To))
		b = appendU64(b, uint64(s.DstOff))
		b = appendU64(b, uint64(s.DstStride))
		b = appendU64(b, uint64(len(s.LocalIdx)))
		for _, li := range s.LocalIdx {
			b = appendU32(b, uint32(li))
		}
	}
	b = appendU64(b, uint64(len(p.RecvFrom)))
	for _, r := range p.RecvFrom {
		b = appendU64(b, uint64(r.From))
		b = appendU64(b, uint64(r.Count))
		b = appendU64(b, uint64(r.Off))
	}
	return b
}

// DecodePlan inverts Encode.
func DecodePlan(data []byte) (*Plan, error) {
	d := &decoder{data: data}
	if d.u32() != planMagic {
		return nil, errors.New("spmvm: bad plan magic")
	}
	p := &Plan{
		Workers: int(d.u64()),
		Logical: int(d.u64()),
		Lo:      int64(d.u64()),
		Hi:      int64(d.u64()),
	}
	p.HaloCols = make([]int64, d.count(8))
	for i := range p.HaloCols {
		p.HaloCols[i] = int64(d.u64())
	}
	p.SendTo = make([]SendPartner, d.count(24))
	for i := range p.SendTo {
		p.SendTo[i].To = int(d.u64())
		p.SendTo[i].DstOff = int64(d.u64())
		p.SendTo[i].DstStride = int64(d.u64())
		p.SendTo[i].LocalIdx = make([]int32, d.count(4))
		for j := range p.SendTo[i].LocalIdx {
			p.SendTo[i].LocalIdx[j] = int32(d.u32())
		}
	}
	p.RecvFrom = make([]RecvPartner, d.count(24))
	for i := range p.RecvFrom {
		p.RecvFrom[i].From = int(d.u64())
		p.RecvFrom[i].Count = int(d.u64())
		p.RecvFrom[i].Off = int64(d.u64())
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

func encodeRequest(r request) []byte {
	var b []byte
	b = appendU64(b, uint64(r.From))
	b = appendU64(b, uint64(r.DstOff))
	b = appendU64(b, uint64(r.Stride))
	b = appendU64(b, uint64(len(r.Cols)))
	for _, c := range r.Cols {
		b = appendU64(b, uint64(c))
	}
	return b
}

func decodeRequest(data []byte) (request, error) {
	d := &decoder{data: data}
	r := request{From: int(d.u64()), DstOff: int64(d.u64()), Stride: int64(d.u64())}
	r.Cols = make([]int64, d.count(8))
	for i := range r.Cols {
		r.Cols[i] = int64(d.u64())
	}
	return r, d.err
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.data) {
		d.err = errors.New("spmvm: truncated plan")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.err = errors.New("spmvm: truncated plan")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// count reads a length prefix and sanity-checks it against the bytes left
// (each element needs at least elemSize bytes), so corrupt input cannot
// force a huge allocation.
func (d *decoder) count(elemSize int) uint64 {
	n := d.u64()
	if d.err == nil && n > uint64((len(d.data)-d.off)/elemSize+1) {
		d.err = errors.New("spmvm: implausible length in plan")
		return 0
	}
	return n
}

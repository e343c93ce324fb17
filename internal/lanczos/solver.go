package lanczos

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/matrix"
	"repro/internal/spmvm"
)

// Options configures a Solver.
type Options struct {
	// MaxIters bounds the iteration count (the paper's benchmarks run a
	// fixed 3500 iterations).
	MaxIters int
	// NumEigs is how many low-lying eigenvalues to track.
	NumEigs int
	// Tol is the convergence tolerance on the tracked eigenvalues
	// (0 disables convergence checking: fixed-iteration mode).
	Tol float64
	// CheckEvery controls how often the QL method is run (default 10).
	CheckEvery int
	// Seed selects the deterministic start vector.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.CheckEvery <= 0 {
		o.CheckEvery = 10
	}
	if o.NumEigs <= 0 {
		o.NumEigs = 4
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 1000
	}
	return o
}

// Solver runs the Lanczos iteration (the paper's Algorithm 1) on a
// distributed matrix. Its complete state — two consecutive Lanczos vectors
// plus the α and β coefficients — is exactly what the paper checkpoints.
type Solver struct {
	comm spmvm.Comm
	eng  *spmvm.Engine
	opts Options

	// It is the number of completed iterations.
	It int64
	// V is ν_j (owned chunk), VPrev is ν_{j-1}.
	V, VPrev []float64
	// Alpha holds α_1..α_j; Beta holds β_2..β_{j+1} staged so that
	// Beta[i] is the subdiagonal next to Alpha[i] (Beta has one entry
	// less when the iteration is at a checkpointable boundary).
	Alpha, Beta []float64
	// beta is β_{j} entering the next iteration (norm of the last w).
	beta float64
	// Eigs are the latest eigenvalue estimates (lowest NumEigs).
	Eigs []float64
	// prevEigs supports the convergence criterion.
	prevEigs  []float64
	converged bool
	// w is scratch for A·v.
	w []float64
	// red holds the reusable scalar-reduction buffers, so the
	// per-iteration dot products and norms allocate nothing on the
	// collective fast path.
	red spmvm.DotScratch
	// cp is CheckpointPayload's staging buffer, sized on first use for the
	// largest state the solver reaches (MaxIters coefficients) and reused.
	cp []byte
}

// New creates a solver with the deterministic start vector. The start
// normalization is collective: every worker must call New together.
func New(c spmvm.Comm, eng *spmvm.Engine, opts Options) (*Solver, error) {
	s := NewShell(c, eng, opts)
	if err := s.ResetStart(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewShell creates a solver with empty state and no communication — the
// constructor used by a rescue process, whose state arrives via Restore.
// α and β are allocated at MaxIters capacity, so Step never grows them.
func NewShell(c spmvm.Comm, eng *spmvm.Engine, opts Options) *Solver {
	s := &Solver{comm: c, eng: eng, opts: opts.withDefaults()}
	n := eng.LocalRows()
	s.V = make([]float64, n)
	s.VPrev = make([]float64, n)
	s.w = make([]float64, n)
	s.Alpha = make([]float64, 0, s.opts.MaxIters)
	s.Beta = make([]float64, 0, s.opts.MaxIters)
	return s
}

// ResetStart (re)initializes the solver to iteration 0 with the
// deterministic normalized start vector. Collective (one Norm2); every
// group member must call it together — the cold-restart path when no
// consistent checkpoint survives. It writes into the solver's own slices,
// so a reset of the shape the solver holds allocates nothing but what the
// collective does.
func (s *Solver) ResetStart() error {
	n := s.eng.LocalRows()
	s.V = resized(s.V, n)
	s.VPrev = resized(s.VPrev, n)
	clear(s.VPrev)
	s.w = resized(s.w, n)
	s.Alpha, s.Beta, s.Eigs, s.prevEigs = s.Alpha[:0], s.Beta[:0], s.Eigs[:0], nil
	s.It, s.beta = 0, 0
	s.converged = false
	lo := s.eng.Plan().Lo
	for i := range s.V {
		s.V[i] = startEntry(s.opts.Seed, lo+int64(i))
	}
	norm, err := s.red.Norm2(s.comm, s.V)
	if err != nil {
		return err
	}
	if norm == 0 {
		return fmt.Errorf("lanczos: zero start vector")
	}
	for i := range s.V {
		s.V[i] /= norm
	}
	return nil
}

// SetEngine rebinds the solver to a freshly rebuilt spMVM engine (after a
// recovery rebuilt the halo segment and communication plan bindings).
func (s *Solver) SetEngine(eng *spmvm.Engine) {
	s.eng = eng
	s.w = resized(s.w, eng.LocalRows())
}

// resized returns v if it has length n, else a fresh zeroed slice of n.
func resized(v []float64, n int) []float64 {
	if len(v) == n {
		return v
	}
	return make([]float64, n)
}

// startEntry derives the deterministic global start vector entry for row i:
// identical across any worker count and after any recovery.
func startEntry(seed uint64, i int64) float64 {
	h := splitmix64(seed ^ uint64(i)*0x9E3779B97F4A7C15)
	return float64(h>>11)/float64(1<<52) - 1 // uniform [-1, 1)
}

func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Step performs one Lanczos iteration (Algorithm 1):
//
//	ω ← A·ν_j;  α_j ← ω·ν_j;  ω ← ω − α_j ν_j − β_j ν_{j−1};
//	β_{j+1} ← ‖ω‖;  ν_{j+1} ← ω/β_{j+1}
//
// followed, every CheckEvery iterations, by the QL eigenvalue update and
// convergence check.
func (s *Solver) Step() error {
	if err := s.eng.SpMV(s.V, s.w, s.It); err != nil {
		return err
	}
	alpha, err := s.red.Dot(s.comm, s.w, s.V)
	if err != nil {
		return err
	}
	for i := range s.w {
		s.w[i] -= alpha*s.V[i] + s.beta*s.VPrev[i]
	}
	betaNext, err := s.red.Norm2(s.comm, s.w)
	if err != nil {
		return err
	}
	s.Alpha = append(s.Alpha, alpha)
	if s.It > 0 {
		s.Beta = append(s.Beta, s.beta)
	}
	s.beta = betaNext
	if betaNext < 1e-300 {
		// Happy breakdown: the Krylov space is exhausted; estimates are
		// exact eigenvalues of the projected operator.
		s.It++
		s.converged = true
		return s.updateEigs()
	}
	s.VPrev, s.V = s.V, s.VPrev
	for i := range s.V {
		s.V[i] = s.w[i] / betaNext
	}
	s.It++
	if int(s.It)%s.opts.CheckEvery == 0 {
		if err := s.updateEigs(); err != nil {
			return err
		}
	}
	return nil
}

// updateEigs runs the QL method on the current tridiagonal matrix (the
// paper's CalcMinimumEigenVal) and evaluates convergence.
func (s *Solver) updateEigs() error {
	if len(s.Alpha) == 0 {
		return nil
	}
	eigs, err := TridiagEigenvalues(s.Alpha, s.Beta)
	if err != nil {
		return err
	}
	s.prevEigs = s.Eigs
	s.Eigs = LowestK(eigs, s.opts.NumEigs)
	if s.opts.Tol > 0 && len(s.prevEigs) == len(s.Eigs) && len(s.Eigs) == s.opts.NumEigs {
		conv := true
		for i := range s.Eigs {
			if math.Abs(s.Eigs[i]-s.prevEigs[i]) > s.opts.Tol {
				conv = false
				break
			}
		}
		if conv {
			s.converged = true
		}
	}
	return nil
}

// Finished reports whether the solve is done (converged or out of
// iterations).
func (s *Solver) Finished() bool {
	return s.converged || s.It >= int64(s.opts.MaxIters)
}

// Converged reports whether the convergence criterion fired (as opposed to
// hitting MaxIters).
func (s *Solver) Converged() bool { return s.converged }

// --- checkpointing -----------------------------------------------------------

// CheckpointPayload serializes the solver state the paper identifies:
// "The checkpointing data consists of two consecutive Lanczos vectors,
// α, and β", plus the iteration counter and current estimates.
//
// The payload is staged into a buffer the solver owns, sized once for
// MaxIters coefficients and reused, so a checkpoint allocates nothing after
// the first. It is borrowed: valid until the next CheckpointPayload call,
// so a consumer that keeps it must copy it before it returns (the
// checkpoint library and the mirror encoder do; see core.App.Checkpoint).
func (s *Solver) CheckpointPayload() []byte {
	if s.cp == nil {
		// It and β, five length prefixes, the two vectors, α, β, estimates.
		s.cp = make([]byte, 0, 8*(2+5+2*len(s.V)+2*s.opts.MaxIters+s.opts.NumEigs))
	}
	b := binary.LittleEndian.AppendUint64(s.cp[:0], uint64(s.It))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.beta))
	b = appendF64s(b, s.V)
	b = appendF64s(b, s.VPrev)
	b = appendF64s(b, s.Alpha)
	b = appendF64s(b, s.Beta)
	b = appendF64s(b, s.Eigs)
	s.cp = b
	return b
}

// Restore resets the solver to a checkpointed state. Every length is
// checked before anything is written, so a rejected payload leaves the
// solver as it was: the vectors must be this engine's row count, and α and
// β must be as long as Step keeps them at the payload's iteration counter
// (len(Alpha) = It, len(Beta) = max(It−1, 0)) — a misaligned pair would
// make a wrong tridiagonal matrix without an error. The state is decoded
// into the solver's own slices, so a restore of the shape the solver holds
// allocates nothing and keeps no reference to payload.
func (s *Solver) Restore(payload []byte) error {
	d := f64decoder{data: payload}
	it := d.u64()
	beta := d.f64()
	v := d.f64s()
	vprev := d.f64s()
	alpha := d.f64s()
	betas := d.f64s()
	eigs := d.f64s()
	if d.err != nil {
		return fmt.Errorf("lanczos: restore: %w", d.err)
	}
	n := s.eng.LocalRows()
	if len(v) != 8*n || len(vprev) != 8*n {
		return fmt.Errorf("lanczos: restore: vector lengths %d and %d, want %d", len(v)/8, len(vprev)/8, n)
	}
	na, nb := len(alpha)/8, len(betas)/8
	if uint64(na) != it || nb != max(na-1, 0) {
		return fmt.Errorf("lanczos: restore: %d α and %d β coefficients at iteration %d", na, nb, it)
	}
	s.It = int64(it)
	s.beta = beta
	s.V = decodeF64s(s.V, v)
	s.VPrev = decodeF64s(s.VPrev, vprev)
	s.Alpha = decodeF64s(s.Alpha, alpha)
	s.Beta = decodeF64s(s.Beta, betas)
	s.Eigs = decodeF64s(s.Eigs, eigs)
	s.prevEigs = nil
	s.converged = false
	s.w = resized(s.w, n)
	return nil
}

func appendF64s(b []byte, v []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	off := len(b)
	b = slices.Grow(b, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(x))
	}
	return b
}

// decodeF64s decodes the 8-byte entries of raw into dst's backing array,
// growing it only when it is too short.
func decodeF64s(dst []float64, raw []byte) []float64 {
	dst = slices.Grow(dst[:0], len(raw)/8)[:len(raw)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return dst
}

type f64decoder struct {
	data []byte
	off  int
	err  error
}

func (d *f64decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.err = fmt.Errorf("truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *f64decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// f64s returns the next length-prefixed vector's entries, still encoded:
// 8 bytes each, a view of d.data.
func (d *f64decoder) f64s() []byte {
	n := d.u64()
	if d.err != nil || n > uint64((len(d.data)-d.off)/8) {
		if d.err == nil {
			d.err = fmt.Errorf("implausible vector length %d", n)
		}
		return nil
	}
	raw := d.data[d.off : d.off+8*int(n)]
	d.off += len(raw)
	return raw
}

// SerialLowestEigs is the non-distributed reference: it runs plain Lanczos
// with the same start vector on the full matrix (for tests and the
// quickstart example).
func SerialLowestEigs(gen matrix.Generator, iters, k int, seed uint64) ([]float64, error) {
	n := gen.Dim()
	full := matrix.Full(gen)
	v := make([]float64, n)
	for i := range v {
		v[i] = startEntry(seed, int64(i))
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	vprev := make([]float64, n)
	w := make([]float64, n)
	var alpha, beta []float64
	var b float64
	for it := 0; it < iters; it++ {
		full.MulVec(v, w)
		var a float64
		for i := range w {
			a += w[i] * v[i]
		}
		for i := range w {
			w[i] -= a*v[i] + b*vprev[i]
		}
		var nb float64
		for i := range w {
			nb += w[i] * w[i]
		}
		nb = math.Sqrt(nb)
		alpha = append(alpha, a)
		if it > 0 {
			beta = append(beta, b)
		}
		b = nb
		if nb < 1e-300 {
			break
		}
		vprev, v = v, vprev
		for i := range v {
			v[i] = w[i] / nb
		}
	}
	eigs, err := TridiagEigenvalues(alpha, beta)
	if err != nil {
		return nil, err
	}
	return LowestK(eigs, k), nil
}

package lanczos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspi"
	"repro/internal/matrix"
	"repro/internal/spmvm"
)

// laplacianEig returns the k-th (1-based) smallest eigenvalue of the 1-D
// Dirichlet Laplacian of dimension n: 2 - 2cos(kπ/(n+1)).
func laplacianEig(n int64, k int) float64 {
	return 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
}

func TestTridiagEigenvaluesLaplacian(t *testing.T) {
	const n = 50
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	eigs, err := TridiagEigenvalues(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := laplacianEig(n, k)
		if math.Abs(eigs[k-1]-want) > 1e-12 {
			t.Fatalf("eig %d: got %v want %v", k, eigs[k-1], want)
		}
	}
}

func TestTridiagEigenvaluesDiagonal(t *testing.T) {
	d := []float64{5, -2, 7, 0, 3}
	eigs, err := TridiagEigenvalues(d, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 0, 3, 5, 7}
	for i := range want {
		if math.Abs(eigs[i]-want[i]) > 1e-14 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestTridiagEigenvaluesSmall(t *testing.T) {
	// Empty and 1x1.
	if eigs, err := TridiagEigenvalues(nil, nil); err != nil || len(eigs) != 0 {
		t.Fatalf("empty: %v %v", eigs, err)
	}
	eigs, err := TridiagEigenvalues([]float64{3}, nil)
	if err != nil || len(eigs) != 1 || eigs[0] != 3 {
		t.Fatalf("1x1: %v %v", eigs, err)
	}
	// 2x2 [[a b][b c]]: analytic eigenvalues.
	a, b, c := 2.0, -1.5, -1.0
	eigs, err = TridiagEigenvalues([]float64{a, c}, []float64{b})
	if err != nil {
		t.Fatal(err)
	}
	tr, det := a+c, a*c-b*b
	disc := math.Sqrt(tr*tr - 4*det)
	want := []float64{(tr - disc) / 2, (tr + disc) / 2}
	for i := range want {
		if math.Abs(eigs[i]-want[i]) > 1e-12 {
			t.Fatalf("2x2 eigs = %v, want %v", eigs, want)
		}
	}
}

func TestTridiagBadInput(t *testing.T) {
	if _, err := TridiagEigenvalues([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("bad subdiagonal length accepted")
	}
}

func TestQLAgainstSturmProperty(t *testing.T) {
	// For random tridiagonal matrices, the number of eigenvalues strictly
	// below the midpoint between consecutive QL eigenvalues must equal the
	// index — an independent check via Sturm sequences.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rng := rand.New(rand.NewSource(seed))
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64() * 3
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		eigs, err := TridiagEigenvalues(d, e)
		if err != nil {
			return false
		}
		for k := 0; k < n-1; k++ {
			if eigs[k] > eigs[k+1] {
				return false
			}
			mid := (eigs[k] + eigs[k+1]) / 2
			if eigs[k+1]-eigs[k] < 1e-9 {
				continue // too close to separate reliably
			}
			if got := SturmCount(d, e, mid); got != k+1 {
				return false
			}
		}
		// All eigenvalues lie below max+1 and above min-1.
		if SturmCount(d, e, eigs[n-1]+1) != n || SturmCount(d, e, eigs[0]-1) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSturmCountBasic(t *testing.T) {
	// Laplacian tridiag n=5: eigenvalues 2-2cos(kπ/6), k=1..5.
	d := []float64{2, 2, 2, 2, 2}
	e := []float64{-1, -1, -1, -1}
	if got := SturmCount(d, e, 0); got != 0 {
		t.Fatalf("below spectrum: %d", got)
	}
	if got := SturmCount(d, e, 5); got != 5 {
		t.Fatalf("above spectrum: %d", got)
	}
	if got := SturmCount(d, e, 2); got != 2 {
		t.Fatalf("middle: %d", got)
	}
}

func TestLowestK(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := LowestK(xs, 2); len(got) != 2 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
	if got := LowestK(xs, 9); len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	// Result must be a copy.
	got := LowestK(xs, 3)
	got[0] = 99
	if xs[0] != 1 {
		t.Fatal("LowestK aliases input")
	}
}

// runSolver runs the distributed solver on gen with the given worker count
// and returns its Eigenvalues (identical on all workers, so worker 0's are
// returned).
func runSolver(t *testing.T, gen matrix.Generator, workers int, opts Options) []float64 {
	t.Helper()
	var mu sync.Mutex
	var out []float64
	job := gaspi.Launch(gaspi.Config{
		Procs:   workers,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
	}, func(p *gaspi.Proc) error {
		c := &spmvm.Direct{P: p, Base: 0, Workers: workers, Group: gaspi.GroupAll}
		lo, hi := matrix.BlockRange(gen.Dim(), workers, c.Logical())
		blk := spmvm.Generate(gen, lo, hi)
		plan, err := spmvm.Preprocess(c, blk)
		if err != nil {
			return err
		}
		eng, err := spmvm.NewEngine(c, plan, blk, 7)
		if err != nil {
			return err
		}
		s, err := New(c, eng, opts)
		if err != nil {
			return err
		}
		for !s.Finished() {
			if err := s.Step(); err != nil {
				return fmt.Errorf("iter %d: %w", s.It, err)
			}
		}
		eigs, err := s.Eigenvalues()
		if err != nil {
			return err
		}
		if c.Logical() == 0 {
			mu.Lock()
			out = eigs
			mu.Unlock()
		}
		return nil
	})
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(120 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	return out
}

func TestLanczosFindsLaplacianEigenvalues(t *testing.T) {
	const n = 60
	gen := matrix.Laplacian1D{N: n}
	eigs := runSolver(t, gen, 3, Options{MaxIters: n, NumEigs: 2, Seed: 5})
	if len(eigs) < 2 {
		t.Fatalf("eigs = %v", eigs)
	}
	for k := 1; k <= 1; k++ { // the lowest one; higher ones may be ghosts
		want := laplacianEig(n, k)
		if math.Abs(eigs[k-1]-want) > 1e-6 {
			t.Fatalf("eig %d: got %v want %v", k, eigs[k-1], want)
		}
	}
}

func TestLanczosMatchesSerial(t *testing.T) {
	gen := matrix.DefaultGraphene(6, 5, 17)
	iters := 40
	serial, err := SerialLowestEigs(gen, iters, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		dist := runSolver(t, gen, workers, Options{MaxIters: iters, NumEigs: 3, Seed: 5})
		for i := range serial {
			if math.Abs(dist[i]-serial[i]) > 1e-8 {
				t.Fatalf("workers=%d eig %d: dist %v serial %v", workers, i, dist[i], serial[i])
			}
		}
	}
}

func TestCheckpointRestoreBitwiseIdentical(t *testing.T) {
	gen := matrix.DefaultGraphene(5, 4, 9)
	const workers = 2
	var mu sync.Mutex
	finals := map[string][]float64{}

	run := func(label string, restoreAt int64) {
		job := gaspi.Launch(gaspi.Config{Procs: workers, Latency: fabric.LatencyModel{Base: time.Microsecond}},
			func(p *gaspi.Proc) error {
				c := &spmvm.Direct{P: p, Base: 0, Workers: workers, Group: gaspi.GroupAll}
				lo, hi := matrix.BlockRange(gen.Dim(), workers, c.Logical())
				blk := spmvm.Generate(gen, lo, hi)
				plan, err := spmvm.Preprocess(c, blk)
				if err != nil {
					return err
				}
				eng, err := spmvm.NewEngine(c, plan, blk, 7)
				if err != nil {
					return err
				}
				s, err := New(c, eng, Options{MaxIters: 30, NumEigs: 2, Seed: 3})
				if err != nil {
					return err
				}
				var cp []byte
				for !s.Finished() {
					if s.It == restoreAt && cp == nil {
						cp = s.CheckpointPayload()
						// Keep computing 5 more iterations, then roll back —
						// simulating redo-work after a failure.
						for j := 0; j < 5 && !s.Finished(); j++ {
							if err := s.Step(); err != nil {
								return err
							}
						}
						if err := s.Restore(cp); err != nil {
							return err
						}
						if s.It != restoreAt {
							return fmt.Errorf("restored to %d, want %d", s.It, restoreAt)
						}
					}
					if err := s.Step(); err != nil {
						return err
					}
				}
				eigs, err := s.Eigenvalues()
				if err != nil {
					return err
				}
				if c.Logical() == 0 {
					mu.Lock()
					finals[label] = eigs
					mu.Unlock()
				}
				return nil
			})
		defer job.Close()
		res, ok := job.WaitTimeout(60 * time.Second)
		if !ok {
			t.Fatal("hung")
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s rank %d: %v", label, r.Rank, r.Err)
			}
		}
	}

	run("straight", -1) // never restores
	run("rollback", 10)

	a, b := finals["straight"], finals["rollback"]
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("finals: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eig %d differs after rollback: %v vs %v", i, a[i], b[i])
		}
	}
}

// steppedSolver returns a one-process solver on the 8-row 1-D Laplacian
// after iters iterations, its job already closed: Restore and
// CheckpointPayload do not communicate.
func steppedSolver(t *testing.T, iters int64) *Solver {
	t.Helper()
	return inSolverJob(t, matrix.Laplacian1D{N: 8}, 1, Options{MaxIters: 8, Seed: 1}, iters, nil)
}

// inSolverJob runs a solver on gen over workers processes for iters
// iterations, then f (when non-nil) on every rank's solver inside the job,
// where the solvers can still communicate. It returns rank 0's solver after
// the job closed.
func inSolverJob(tb testing.TB, gen matrix.Generator, workers int, opts Options, iters int64, f func(s *Solver) error) *Solver {
	tb.Helper()
	solvers := make([]*Solver, workers) // one slot per rank, read after the job ended
	job := gaspi.Launch(gaspi.Config{Procs: workers, Latency: fabric.LatencyModel{Base: time.Microsecond}},
		func(p *gaspi.Proc) error {
			c := &spmvm.Direct{P: p, Base: 0, Workers: workers, Group: gaspi.GroupAll}
			lo, hi := matrix.BlockRange(gen.Dim(), workers, c.Logical())
			blk := spmvm.Generate(gen, lo, hi)
			plan, err := spmvm.Preprocess(c, blk)
			if err != nil {
				return err
			}
			eng, err := spmvm.NewEngine(c, plan, blk, 7)
			if err != nil {
				return err
			}
			s, err := New(c, eng, opts)
			if err != nil {
				return err
			}
			solvers[c.Logical()] = s
			for s.It < iters {
				if err := s.Step(); err != nil {
					return err
				}
			}
			if f != nil {
				return f(s)
			}
			return nil
		})
	defer job.Close()
	res, ok := job.WaitTimeout(30 * time.Second)
	if !ok {
		tb.Fatal("hung")
	}
	for _, r := range res {
		if r.Err != nil {
			tb.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	return solvers[0]
}

// fusesMultiplyAdd reports whether this build contracts a*b + c into one
// rounding (arm64 does, and amd64 from GOAMD64=v3); called with
// 1+2⁻³⁰, 1−2⁻³⁰, −1 it is 0 unfused and −2⁻⁶⁰ fused.
//
//go:noinline
func fusesMultiplyAdd(a, b, c float64) bool { return a*b+c != 0 }

// stepGolden is TestStepGolden's hash. It was re-recorded when Step moved
// to one reduction per iteration: α_j = (u·ω_j)/‖ω_j‖² and the division by
// β_j after the multiply round differently from the two-reduction
// recurrence, so the bits moved (0x83d66cb0ca40d8ea before);
// TestStepMatchesClassicRecurrence bounds how far the Ritz values moved.
const stepGolden = 0x82cec5f89218e198

// TestStepGolden pins the distributed iteration's arithmetic bit for bit:
// an FNV-64 of the α and β bits after 60 iterations of a 4-rank solve on a
// 32×16 graphene sheet. A multiply that sums a row in another order, or an
// update whose norm sums w in another order, changes the hash.
func TestStepGolden(t *testing.T) {
	if fusesMultiplyAdd(1+0x1p-30, 1-0x1p-30, -1) {
		t.Skip("the golden is recorded on a build that rounds every multiply and add")
	}
	s := inSolverJob(t, matrix.DefaultGraphene(32, 16, 7), 4, Options{MaxIters: 60, Seed: 3}, 60, nil)
	if len(s.Alpha) != 60 || len(s.Beta) != 59 {
		t.Fatalf("%d α and %d β after 60 iterations", len(s.Alpha), len(s.Beta))
	}
	h := fnv.New64a()
	for _, v := range [][]float64{s.Alpha, s.Beta} {
		for _, x := range v {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	if got := h.Sum64(); got != stepGolden {
		t.Fatalf("α/β hash %#x, golden %#x", got, uint64(stepGolden))
	}
}

// classicCoefficients runs Algorithm 1 as written, the recurrence Step
// replaced: normalized vectors and two allreduces per iteration, one for α
// and one for ‖ω‖². It starts from s's start vector on s's engine and
// communicator, numbering its multiplies after s's own, and returns iters
// α and iters−1 β. Collective.
func classicCoefficients(s *Solver, iters int) (alpha, beta []float64, err error) {
	n := s.eng.LocalRows()
	v, vprev, w := make([]float64, n), make([]float64, n), make([]float64, n)
	lo := s.eng.Plan().Lo
	for i := range v {
		v[i] = startEntry(s.opts.Seed, lo+int64(i))
	}
	var out [1]float64
	dot := func(a, b []float64) (float64, error) {
		var local float64
		for i := range a {
			local += a[i] * b[i]
		}
		err := s.comm.AllreduceF64Into([]float64{local}, out[:], gaspi.OpSum)
		return out[0], err
	}
	sq, err := dot(v, v)
	if err != nil {
		return nil, nil, err
	}
	for i := range v {
		v[i] /= math.Sqrt(sq)
	}
	var b float64
	for it := 0; it < iters; it++ {
		if err := s.eng.SpMV(v, w, s.It+int64(it)); err != nil {
			return nil, nil, err
		}
		a, err := dot(w, v)
		if err != nil {
			return nil, nil, err
		}
		for i := range w {
			w[i] -= a*v[i] + b*vprev[i]
		}
		if sq, err = dot(w, w); err != nil {
			return nil, nil, err
		}
		alpha = append(alpha, a)
		if it > 0 {
			beta = append(beta, b)
		}
		b = math.Sqrt(sq)
		vprev, v = v, vprev
		for i := range v {
			v[i] = w[i] / b
		}
	}
	return alpha, beta, nil
}

// TestStepMatchesClassicRecurrence: the one-reduction Step and Algorithm 1
// as written, run side by side on the four graphene sheets of spmvm's
// TestMulMatchesCSRReference (4 ranks), reach the same lowest four Ritz
// values within 1e-12 relative.
func TestStepMatchesClassicRecurrence(t *testing.T) {
	for _, sheet := range [][2]int{{2, 5}, {32, 16}, {128, 128}, {256, 128}} {
		gen := matrix.DefaultGraphene(sheet[0], sheet[1], 7)
		iters := int(min(gen.Dim()/2, 60))
		var alpha, beta []float64
		s := inSolverJob(t, gen, 4, Options{MaxIters: iters, Seed: 3}, int64(iters), func(s *Solver) error {
			a, b, err := classicCoefficients(s, iters)
			if s.comm.Logical() == 0 {
				alpha, beta = a, b
			}
			return err
		})
		got, err := TridiagEigenvalues(s.Alpha, s.Beta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := TridiagEigenvalues(alpha, beta)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			if d := math.Abs(got[i]-want[i]) / math.Abs(want[i]); d > 1e-12 {
				t.Errorf("%dx%d sheet, Ritz value %d: Step %v, classic %v (%.2g relative)",
					sheet[0], sheet[1], i, got[i], want[i], d)
			}
		}
	}
}

// collCounter wraps a solver's Comm: it counts the collectives the solver
// makes and the elements of its last allreduce, and fails the allreduce
// with fail when that is set.
type collCounter struct {
	spmvm.Comm
	calls, elems int
	fail         error
}

func (c *collCounter) AllreduceF64Into(in, out []float64, op gaspi.ReduceOp) error {
	c.calls++
	c.elems = len(in)
	if c.fail != nil {
		return c.fail
	}
	return c.Comm.AllreduceF64Into(in, out, op)
}

func (c *collCounter) AllreduceF64(in []float64, op gaspi.ReduceOp) ([]float64, error) {
	c.calls++
	return c.Comm.AllreduceF64(in, op)
}

func (c *collCounter) AllreduceI64(in []int64, op gaspi.ReduceOp) ([]int64, error) {
	c.calls++
	return c.Comm.AllreduceI64(in, op)
}

func (c *collCounter) Barrier() error {
	c.calls++
	return c.Comm.Barrier()
}

// TestStepRunsOneCollective: New and ResetStart communicate not at all, a
// Step makes exactly one collective, a two-element allreduce, and a Step
// whose allreduce fails leaves the checkpointed state byte for byte as it
// found it (the failover agreement reads It after such a step).
func TestStepRunsOneCollective(t *testing.T) {
	opts := Options{MaxIters: 20, Seed: 6}
	inSolverJob(t, matrix.DefaultGraphene(4, 4, 7), 2, opts, 0, func(s *Solver) error {
		cc := &collCounter{Comm: s.comm}
		if _, err := New(cc, s.eng, opts); err != nil {
			return err
		}
		s.comm = cc
		if err := s.ResetStart(); err != nil {
			return err
		}
		if cc.calls != 0 {
			return fmt.Errorf("New and ResetStart made %d collectives", cc.calls)
		}
		for i := 1; i <= 5; i++ {
			if err := s.Step(); err != nil {
				return err
			}
			if cc.calls != i || cc.elems != 2 {
				return fmt.Errorf("%d steps made %d collectives, the last of %d elements", i, cc.calls, cc.elems)
			}
		}
		before := bytes.Clone(s.CheckpointPayload())
		cc.fail = errors.New("injected")
		if err := s.Step(); !errors.Is(err, cc.fail) {
			return fmt.Errorf("a Step whose allreduce failed returned %v", err)
		}
		if !bytes.Equal(s.CheckpointPayload(), before) {
			return fmt.Errorf("a failed Step changed the checkpointed state")
		}
		return nil
	})
}

// referencePayload is CheckpointPayload as it was before the staging
// buffer: every field appended into a fresh slice.
func referencePayload(s *Solver) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(s.It))
	for _, v := range [][]float64{s.V, s.VPrev, s.Alpha, s.Beta} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// TestCheckpointPayloadGolden: the reused staging buffer encodes every state
// byte-identically to the fresh-slice encoding — as the state grows with the
// iterations, and after a Restore to a shorter state, where bytes of the
// longer encoding remain in the buffer past its length — and it is one
// buffer throughout.
func TestCheckpointPayloadGolden(t *testing.T) {
	inSolverJob(t, matrix.Laplacian1D{N: 64}, 1, Options{MaxIters: 24, NumEigs: 3, Seed: 4}, 0, func(s *Solver) error {
		var first *byte
		var at6 []byte
		check := func() error {
			got := s.CheckpointPayload()
			if want := referencePayload(s); !bytes.Equal(got, want) {
				return fmt.Errorf("iteration %d: staged payload differs from the reference encoding (%d vs %d bytes)", s.It, len(got), len(want))
			}
			if first == nil {
				first = &got[0]
			} else if &got[0] != first {
				return fmt.Errorf("iteration %d: the staging buffer moved", s.It)
			}
			return nil
		}
		for !s.Finished() {
			if err := check(); err != nil {
				return err
			}
			if s.It == 6 {
				at6 = referencePayload(s)
			}
			if err := s.Step(); err != nil {
				return err
			}
		}
		if err := check(); err != nil {
			return err
		}
		if err := s.Restore(at6); err != nil {
			return err
		}
		return check()
	})
}

// TestResetStartReusesVectors: a same-shape ResetStart (the set-up path's
// second initialization, after NewShell) writes into the solver's own
// slices, allocates nothing, and leaves exactly the state a fresh solver
// starts from.
func TestResetStartReusesVectors(t *testing.T) {
	opts := Options{MaxIters: 40, Seed: 9}
	inSolverJob(t, matrix.Laplacian1D{N: 64}, 1, opts, 0, func(s *Solver) error {
		fresh := bytes.Clone(s.CheckpointPayload())
		for i := 0; i < 10; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		v, vprev, w, alpha := &s.V[0], &s.VPrev[0], &s.w[0], &s.Alpha[0]
		var err error
		n := testing.AllocsPerRun(20, func() { err = s.ResetStart() })
		if err != nil {
			return err
		}
		if n != 0 {
			return fmt.Errorf("a same-shape ResetStart allocates %v times", n)
		}
		if &s.V[0] != v || &s.VPrev[0] != vprev || &s.w[0] != w || &s.Alpha[:1][0] != alpha {
			return fmt.Errorf("ResetStart replaced the solver's slices instead of reusing them")
		}
		if err := s.ResetStart(); err != nil {
			return err
		}
		if !bytes.Equal(s.CheckpointPayload(), fresh) {
			return fmt.Errorf("ResetStart after 10 steps differs from a fresh start")
		}
		return nil
	})
}

// heapAllocs is the process's cumulative count of heap allocations, exact
// to the object (runtime/metrics counts a cached span's objects ahead).
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// allocsQuiesced counts the heap allocations made while f runs, once the
// rest of the process is quiet. The count is process-wide, so it would
// also take in what the job's other goroutines allocate as they start up
// (a fabric shard registering itself, say): before f runs, wait until a
// millisecond passes in which nothing allocates.
func allocsQuiesced(f func()) uint64 {
	for i := 0; i < 1000; i++ {
		before := heapAllocs()
		time.Sleep(time.Millisecond)
		if heapAllocs() == before {
			break
		}
	}
	before := heapAllocs()
	f()
	return heapAllocs() - before
}

// TestStepAllocatesNothing: with α and β preallocated to MaxIters, a run of
// iterations allocates nothing beyond their collectives, one two-element
// reduction each. The count is over the whole run, not per iteration, so
// that amortized growth would show.
func TestStepAllocatesNothing(t *testing.T) {
	const steps = 100
	inSolverJob(t, matrix.Laplacian1D{N: 256}, 1, Options{MaxIters: 3 * steps, Seed: 2}, 2, func(s *Solver) error {
		var err error
		n := allocsQuiesced(func() {
			for i := 0; i < steps && err == nil; i++ {
				err = s.Step()
			}
		})
		if err != nil {
			return err
		}
		coll := allocsQuiesced(func() {
			for i := 0; i < steps && err == nil; i++ {
				_, _, err = s.red.NormDot(s.comm, s.V, s.w)
			}
		})
		if n > coll {
			return fmt.Errorf("%d steps allocate %v times, their collectives %v", steps, n, coll)
		}
		return err
	})
}

// payloadSink keeps BenchmarkCheckpointPayload's result alive.
var payloadSink []byte

// BenchmarkCheckpointPayload stages an 8192-row solver's state into the
// reused buffer. MUST report 0 allocs/op (CI greps for it): the buffer is
// sized once, on the first call, for MaxIters coefficients.
func BenchmarkCheckpointPayload(b *testing.B) {
	inSolverJob(b, matrix.Laplacian1D{N: 8192}, 1, Options{MaxIters: 200, Seed: 1}, 20, func(s *Solver) error {
		b.SetBytes(int64(len(s.CheckpointPayload())))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			payloadSink = s.CheckpointPayload()
		}
		b.StopTimer()
		return nil
	})
}

// payload encodes a checkpoint the way CheckpointPayload does, from parts.
func payload(it int64, v, vprev, alpha, beta []float64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(it))
	for _, x := range [][]float64{v, vprev, alpha, beta} {
		b = appendF64s(b, x)
	}
	return b
}

// TestRestoreRejectsGarbage: a payload Restore cannot use — undecodable,
// truncated, vectors of another length, or α/β not as long as Step keeps
// them at its iteration counter — is an error, and the solver is left
// exactly as it was.
func TestRestoreRejectsGarbage(t *testing.T) {
	s := steppedSolver(t, 5)
	good := steppedSolver(t, 3).CheckpointPayload()
	v := make([]float64, 8)
	bad := map[string][]byte{
		"garbage":           {1, 2, 3},
		"truncated":         good[:len(good)-1],
		"truncated vector":  good[:40],
		"short vector":      payload(3, v[:7], v, v[:3], v[:2]),
		"α short of It":     payload(3, v, v, v[:2], v[:2]),
		"α beyond It":       payload(3, v, v, v[:4], v[:3]),
		"β as long as α":    payload(3, v, v, v[:3], v[:3]),
		"β at iteration 0":  payload(0, v, v, nil, v[:1]),
		"β short by two":    payload(3, v, v, v[:3], v[:1]),
		"It beyond α and β": payload(4, v, v, v[:3], v[:2]),
	}
	before := bytes.Clone(s.CheckpointPayload())
	for name, p := range bad {
		if err := s.Restore(p); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
		if !bytes.Equal(s.CheckpointPayload(), before) {
			t.Fatalf("%s: a rejected restore changed the solver", name)
		}
	}
	for name, p := range map[string][]byte{"iteration 3": good, "iteration 0": payload(0, v, v, nil, nil)} {
		if err := s.Restore(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRestoreDecodesInPlace: Restore decodes into the solver's own slices —
// a same-shape restore allocates nothing — and copies: rewriting the payload
// afterwards does not reach the solver.
func TestRestoreDecodesInPlace(t *testing.T) {
	s := steppedSolver(t, 5)
	cp := steppedSolver(t, 3).CheckpointPayload()
	want := bytes.Clone(cp)
	v, alpha := &s.V[0], &s.Alpha[0]
	if err := s.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if &s.V[0] != v || &s.Alpha[0] != alpha {
		t.Error("Restore replaced the solver's slices instead of decoding into them")
	}
	for i := range cp {
		cp[i] = 0xff
	}
	if got := s.CheckpointPayload(); !bytes.Equal(got, want) {
		t.Fatal("a write to the payload after Restore reached the solver")
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { err = s.Restore(want) }); n != 0 {
		t.Errorf("a same-shape Restore allocates %v times", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestSerialLowestEigsGolden pins the serial reference's four lowest
// eigenvalues on a 32×16 graphene sheet (1024 rows, 120 iterations). The
// matrix itself is pinned bit for bit by matrix's golden checksum; the
// tolerance here only absorbs platforms that fuse multiply-adds.
func TestSerialLowestEigsGolden(t *testing.T) {
	got, err := SerialLowestEigs(matrix.DefaultGraphene(32, 16, 7), 120, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-3.76138890648643, -3.737857886187398, -3.7351348570857135, -3.685350358457574}
	if len(got) != len(want) {
		t.Fatalf("eigs = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("eig %d = %v, golden %v", i, got[i], want[i])
		}
	}
}

func TestHappyBreakdown(t *testing.T) {
	// On a 4-dimensional space the Krylov space exhausts after ≤4 steps;
	// β underflows and the solver must stop, finished, with the exact
	// spectrum.
	gen := matrix.Diagonal{Values: []float64{1, 2, 3, 4}}
	eigs := runSolver(t, gen, 1, Options{MaxIters: 100, NumEigs: 4, Seed: 8})
	if len(eigs) == 0 {
		t.Fatal("no eigenvalues")
	}
	if math.Abs(eigs[0]-1) > 1e-9 {
		t.Fatalf("lowest eig %v, want 1", eigs[0])
	}
}

func TestStartVectorDeterministicAcrossDistribution(t *testing.T) {
	// startEntry depends only on the global index.
	for i := int64(0); i < 100; i += 13 {
		a := startEntry(7, i)
		b := startEntry(7, i)
		if a != b {
			t.Fatal("startEntry not deterministic")
		}
		if a < -1 || a >= 1 {
			t.Fatalf("startEntry(%d) = %v out of [-1,1)", i, a)
		}
	}
	if startEntry(7, 3) == startEntry(8, 3) {
		t.Fatal("seeds do not differentiate")
	}
}

func TestSerialLowestEigsDiagonal(t *testing.T) {
	vals := []float64{9, 7, 5, 3, 1, 2, 4, 6, 8, 10}
	eigs, err := SerialLowestEigs(matrix.Diagonal{Values: vals}, 10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(eigs[i]-want[i]) > 1e-8 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestLanczosFullKrylovMatchesJacobi(t *testing.T) {
	// Independent cross-check of the whole numerical chain: run Lanczos to
	// the full Krylov dimension and compare the extreme eigenvalues
	// against the dense Jacobi reference (a completely separate
	// algorithm). Extreme Ritz values at full dimension are exact up to
	// orthogonality loss; compare the lowest and highest.
	gen := matrix.DefaultGraphene(3, 3, 21) // 18 rows
	dense, err := matrix.JacobiEigenvalues(matrix.Dense(gen))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := SerialLowestEigs(gen, int(gen.Dim()), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial[0]-dense[0]) > 1e-9 {
		t.Fatalf("lowest eig: lanczos %v vs jacobi %v", serial[0], dense[0])
	}
	dist := runSolver(t, gen, 3, Options{MaxIters: int(gen.Dim()), NumEigs: 1, Seed: 4})
	if math.Abs(dist[0]-dense[0]) > 1e-9 {
		t.Fatalf("distributed lowest eig: %v vs jacobi %v", dist[0], dense[0])
	}
}

func TestQLMatchesJacobiOnTridiag(t *testing.T) {
	// The QL implementation against the Jacobi reference on random
	// tridiagonal matrices, embedded densely.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(12)
		d := make([]float64, n)
		e := make([]float64, n-1)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		for i := range d {
			d[i] = rng.NormFloat64() * 2
			dense[i][i] = d[i]
		}
		for i := range e {
			e[i] = rng.NormFloat64()
			dense[i][i+1] = e[i]
			dense[i+1][i] = e[i]
		}
		ql, err := TridiagEigenvalues(d, e)
		if err != nil {
			t.Fatal(err)
		}
		jac, err := matrix.JacobiEigenvalues(dense)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ql {
			if math.Abs(ql[i]-jac[i]) > 1e-9 {
				t.Fatalf("trial %d eig %d: QL %v vs Jacobi %v", trial, i, ql[i], jac[i])
			}
		}
	}
}

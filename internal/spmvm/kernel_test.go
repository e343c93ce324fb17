package spmvm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// kernelSplit cuts part of a workers-way split of gen against a plan whose
// halo is every remote column the block references, without a Comm: what
// the multiply reads, not how the halo arrives.
func kernelSplit(tb testing.TB, gen matrix.Generator, workers, part int) (*Split, *matrix.CSR) {
	tb.Helper()
	lo, hi := matrix.BlockRange(gen.Dim(), workers, part)
	csr := matrix.Build(gen, lo, hi)
	var halo []int64
	for _, col := range csr.Col {
		if col < lo || col >= hi {
			halo = append(halo, col)
		}
	}
	slices.Sort(halo)
	s, err := NewSplit(&Plan{Workers: workers, Logical: part, Lo: lo, Hi: hi, HaloCols: slices.Compact(halo)}, csr)
	if err != nil {
		tb.Fatal(err)
	}
	return s, csr
}

// kernelInputs returns the owned chunk of a random global vector and the
// halo gathered from it, as the engine would see them.
func kernelInputs(s *Split, dim int64) (x, halo []float64) {
	rng := rand.New(rand.NewSource(11))
	xg := make([]float64, dim)
	for i := range xg {
		xg[i] = rng.NormFloat64()
	}
	halo = make([]float64, len(s.plan.HaloCols))
	for i, col := range s.plan.HaloCols {
		halo[i] = xg[col]
	}
	return xg[s.plan.Lo:s.plan.Hi], halo
}

// referenceMul is the engine's arithmetic written out plainly: each row's
// local entries summed in column order, then the sum of its remote entries,
// in column order, added to that. (A row without remote entries adds +0,
// which changes nothing: a sum started at +0 is never −0.)
func referenceMul(csr *matrix.CSR, x, halo []float64, haloCols []int64) []float64 {
	lo, hi := csr.RowOffset, csr.RowOffset+int64(csr.LocalRows())
	y := make([]float64, csr.LocalRows())
	for r := range y {
		var local, remote float64
		for k := csr.RowPtr[r]; k < csr.RowPtr[r+1]; k++ {
			if col := csr.Col[k]; col >= lo && col < hi {
				local += csr.Val[k] * x[col-lo]
			} else {
				slot, _ := slices.BinarySearch(haloCols, col)
				remote += csr.Val[k] * halo[slot]
			}
		}
		y[r] = local + remote
	}
	return y
}

// TestMulMatchesCSRReference pins the multiply's summation order: on every
// block of a 4-way split — of a lattice small enough that the generator
// merges aliased neighbours, and of the sizes the experiments run — the
// engine's local-then-remote multiply, on one thread and sharded over
// three, is bit-identical to referenceMul. Summing a row with more than one
// accumulator, or in any order other than its columns', fails here.
func TestMulMatchesCSRReference(t *testing.T) {
	for _, sheet := range [][2]int{{2, 5}, {32, 16}, {128, 128}, {256, 128}} {
		gen := matrix.DefaultGraphene(sheet[0], sheet[1], 7)
		for part := 0; part < 4; part++ {
			s, csr := kernelSplit(t, gen, 4, part)
			x, halo := kernelInputs(s, gen.Dim())
			want := referenceMul(csr, x, halo, s.plan.HaloCols)
			for _, threads := range []int{1, 3} {
				e := &Engine{Split: s, Threads: threads}
				y := make([]float64, len(x))
				for i := range y {
					y[i] = math.NaN() // the local pass must write every row
				}
				e.mul(&s.local, x, y, false)
				e.mul(&s.remote, halo, y, true)
				e.Close()
				for r := range want {
					if math.Float64bits(y[r]) != math.Float64bits(want[r]) {
						t.Fatalf("%dx%d part %d, %d threads, row %d: %v, reference %v",
							sheet[0], sheet[1], part, threads, r, y[r], want[r])
					}
				}
			}
		}
	}
}

// BenchmarkSpMVKernel is the multiply alone, without communication: block 1
// of a 4-way split of a 128×128 graphene sheet (8192 rows, the kill
// workloads' block), its local part, then its remote part, on one thread.
// It reports ns/nnz and MUST report 0 allocs/op (CI greps for it).
func BenchmarkSpMVKernel(b *testing.B) {
	gen := matrix.DefaultGraphene(128, 128, 7)
	s, csr := kernelSplit(b, gen, 4, 1)
	x, halo := kernelInputs(s, gen.Dim())
	y := make([]float64, len(x))
	e := &Engine{Split: s, Threads: 1}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mul(&s.local, x, y, false)
		e.mul(&s.remote, halo, y, true)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(csr.NNZ()), "ns/nnz")
}

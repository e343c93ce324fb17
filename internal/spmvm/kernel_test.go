package spmvm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// kernelSplit generates part of a workers-way split of gen and cuts it
// against a plan whose halo is every remote column the block references,
// without a Comm: what the multiply reads, not how the halo arrives. It
// also returns the block as matrix.Build makes it, for the references.
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
	s, err := NewSplit(&Plan{Workers: workers, Logical: part, Lo: lo, Hi: hi, HaloCols: slices.Compact(halo)}, Generate(gen, lo, hi))
	if err != nil {
		tb.Fatal(err)
	}
	return s, csr
}

// csrCut is the cut as it was made from matrix.Build's global-index CSR:
// one pass over the sorted rows, each entry to the local part as
// int32(col-lo) or to the remote part as its halo slot.
func csrCut(csr *matrix.CSR, plan *Plan) (local, remote splitCSR) {
	local.rowPtr, remote.rowPtr = []int64{0}, []int64{0}
	for r := 0; r < csr.LocalRows(); r++ {
		for k := csr.RowPtr[r]; k < csr.RowPtr[r+1]; k++ {
			if col := csr.Col[k]; col >= plan.Lo && col < plan.Hi {
				local.col = append(local.col, int32(col-plan.Lo))
				local.val = append(local.val, csr.Val[k])
			} else {
				slot, _ := slices.BinarySearch(plan.HaloCols, col)
				remote.col = append(remote.col, int32(slot))
				remote.val = append(remote.val, csr.Val[k])
			}
		}
		local.rowPtr = append(local.rowPtr, int64(len(local.col)))
		remote.rowPtr = append(remote.rowPtr, int64(len(remote.col)))
	}
	return local, remote
}

// TestGeneratedPartsMatchCSRCut: generating a block straight into its
// parts keeps exactly what cutting matrix.Build's CSR kept — row pointers,
// columns and value bits of both parts — on every block of a 1-, 2-, 3-, 4-
// and 7-way split, so blocks start on either sublattice and some are
// narrower than the 2Nx+1 rows at either end that leave Graphene.SplitRows'
// stencil. The sheets are the ones TestMulMatchesCSRReference multiplies
// (the 2x5 one aliases neighbours) and the narrowest with an interior, each
// as DefaultGraphene makes it and, up to 32x16, with T1, T2 or T3 switched
// off and without disorder; a random matrix's rows arrive unsorted. Each
// block also cuts, bit for bit, into the parts of the one Generate makes
// when the generator's type is hidden, so that its rows take
// matrix.EachRow.
func TestGeneratedPartsMatchCSRCut(t *testing.T) {
	gens := map[string]matrix.Generator{"random": matrix.RandomSparse{N: 200, NNZPerRow: 9, Seed: 5}}
	variants := map[string]func(*matrix.Graphene){
		"default":     func(*matrix.Graphene) {},
		"no T1":       func(g *matrix.Graphene) { g.T1 = 0 },
		"no T2":       func(g *matrix.Graphene) { g.T2 = 0 },
		"no T3":       func(g *matrix.Graphene) { g.T3 = 0 },
		"no disorder": func(g *matrix.Graphene) { g.Disorder = 0 },
	}
	for _, sheet := range [][2]int{{2, 5}, {3, 3}, {3, 7}, {5, 4}, {32, 16}, {128, 128}, {256, 128}} {
		for vname, vary := range variants {
			if sheet[0] > 32 && vname != "default" {
				continue // the small sheets meet every border already
			}
			g := matrix.DefaultGraphene(sheet[0], sheet[1], 7)
			vary(&g)
			gens[fmt.Sprintf("graphene %dx%d %s", sheet[0], sheet[1], vname)] = g
		}
	}
	same := func(a, b splitCSR) bool {
		return slices.Equal(a.rowPtr, b.rowPtr) && slices.Equal(a.col, b.col) &&
			slices.EqualFunc(a.val, b.val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for name, gen := range gens {
		for _, parts := range []int{1, 2, 3, 4, 7} {
			for part := 0; part < parts; part++ {
				s, csr := kernelSplit(t, gen, parts, part)
				local, remote := csrCut(csr, s.plan)
				if !same(s.local, local) || !same(s.remote, remote) {
					t.Fatalf("%s part %d of %d: generated parts differ from the CSR cut", name, part, parts)
				}
				hidden, err := NewSplit(s.plan, Generate(struct{ matrix.Generator }{gen}, s.plan.Lo, s.plan.Hi))
				if err != nil || !same(s.local, hidden.local) || !same(s.remote, hidden.remote) {
					t.Fatalf("%s part %d of %d: Generate differs from Generate through EachRow (%v)", name, part, parts, err)
				}
			}
		}
	}
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

// generated keeps BenchmarkGenerate's result live.
var generated *Block

// BenchmarkGenerate generates the kill workloads' block, 8192 rows of the
// 128x128-cell graphene sheet, logical 1 of 4, both ways: "kernel" as
// Generate makes it (Graphene.SplitRows), "EachRow" with the generator's
// type hidden, so that its rows take matrix.EachRow and the sort. CI fails
// unless the best kernel time of three runs is below 0.7× the best EachRow
// time of the same three.
func BenchmarkGenerate(b *testing.B) {
	gen := matrix.DefaultGraphene(128, 128, 7)
	lo, hi := matrix.BlockRange(gen.Dim(), 4, 1)
	for _, way := range []struct {
		name string
		gen  matrix.Generator
	}{{"kernel", gen}, {"EachRow", struct{ matrix.Generator }{gen}}} {
		b.Run(way.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generated = Generate(way.gen, lo, hi)
			}
		})
	}
}

package matrix

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBlockRangePartition(t *testing.T) {
	// Blocks must tile [0, dim) without gaps or overlap for any split.
	for _, dim := range []int64{1, 7, 64, 100, 1023} {
		for _, nparts := range []int{1, 3, 7, 16} {
			var covered int64
			prevHi := int64(0)
			for p := 0; p < nparts; p++ {
				lo, hi := BlockRange(dim, nparts, p)
				if lo != prevHi {
					t.Fatalf("dim=%d nparts=%d part=%d: lo=%d, want %d", dim, nparts, p, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("negative block")
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != dim || prevHi != dim {
				t.Fatalf("dim=%d nparts=%d: covered %d", dim, nparts, covered)
			}
		}
	}
}

func TestBlockRangeBalance(t *testing.T) {
	lo, hi := BlockRange(10, 3, 0)
	if hi-lo != 4 {
		t.Fatalf("first block %d", hi-lo)
	}
	lo, hi = BlockRange(10, 3, 2)
	if hi-lo != 3 {
		t.Fatalf("last block %d", hi-lo)
	}
}

func TestLaplacian1DStructure(t *testing.T) {
	c := Full(Laplacian1D{N: 5})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 13 { // 3*5 - 2
		t.Fatalf("nnz = %d", c.NNZ())
	}
	x := []float64{1, 1, 1, 1, 1}
	y := make([]float64, 5)
	c.MulVec(x, y)
	want := []float64{1, 0, 0, 0, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v", y)
		}
	}
}

func TestCSRBuildBlocksEqualFull(t *testing.T) {
	g := DefaultGraphene(6, 4, 42)
	full := Full(g)
	x := randomVec(int(g.Dim()), 1)
	yFull := make([]float64, g.Dim())
	full.MulVec(x, yFull)
	const parts = 5
	for p := 0; p < parts; p++ {
		lo, hi := BlockRange(g.Dim(), parts, p)
		blk := Build(g, lo, hi)
		if err := blk.Validate(); err != nil {
			t.Fatalf("part %d: %v", p, err)
		}
		y := make([]float64, hi-lo)
		blk.MulVec(x, y)
		for i := range y {
			if math.Abs(y[i]-yFull[lo+int64(i)]) > 1e-13 {
				t.Fatalf("part %d row %d: %v vs %v", p, i, y[i], yFull[lo+int64(i)])
			}
		}
	}
}

func TestGrapheneSymmetric(t *testing.T) {
	g := DefaultGraphene(5, 4, 7)
	c := Full(g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	dense := toDense(c)
	n := len(dense)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(dense[i][j]-dense[j][i]) > 1e-15 {
				t.Fatalf("asymmetric at (%d,%d): %v vs %v", i, j, dense[i][j], dense[j][i])
			}
		}
	}
}

func TestGrapheneNNZPerRow(t *testing.T) {
	g := DefaultGraphene(8, 8, 1)
	c := Full(g)
	for r := 0; r < c.LocalRows(); r++ {
		if got := c.RowPtr[r+1] - c.RowPtr[r]; got != 13 {
			t.Fatalf("row %d has %d nonzeros, want 13", r, got)
		}
	}
}

func TestGrapheneDeterministic(t *testing.T) {
	g1 := DefaultGraphene(6, 6, 99)
	g2 := DefaultGraphene(6, 6, 99)
	c1, c2 := Full(g1), Full(g2)
	if c1.NNZ() != c2.NNZ() {
		t.Fatal("nnz differs")
	}
	for k := range c1.Val {
		if c1.Val[k] != c2.Val[k] || c1.Col[k] != c2.Col[k] {
			t.Fatal("matrices differ for same seed")
		}
	}
	g3 := DefaultGraphene(6, 6, 100)
	c3 := Full(g3)
	same := true
	for k := range c1.Val {
		if c1.Val[k] != c3.Val[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical disorder")
	}
}

func TestGrapheneDisorderBounds(t *testing.T) {
	g := Graphene{Nx: 10, Ny: 10, T1: 1, Disorder: 0.8, Seed: 3}
	for i := int64(0); i < g.Dim(); i++ {
		e := g.onsite(i)
		if e < -0.4 || e >= 0.4 {
			t.Fatalf("onsite(%d) = %v outside [-W/2, W/2)", i, e)
		}
	}
}

func TestGrapheneCleanSpectrumBounds(t *testing.T) {
	// Without disorder and only NN hopping, the graphene spectrum lies in
	// [-3t, 3t]; Gershgorin gives exactly that bound.
	g := Graphene{Nx: 6, Ny: 6, T1: 1}
	c := Full(g)
	lo, hi := c.RowBounds()
	if lo != -3 || hi != 3 {
		t.Fatalf("Gershgorin [%v, %v], want [-3, 3]", lo, hi)
	}
}

func TestGrapheneSmallLatticeAliasing(t *testing.T) {
	// A 2×2 lattice aliases neighbor offsets; the generator must still
	// produce a valid, symmetric matrix (accumulated values, no duplicate
	// columns).
	g := DefaultGraphene(2, 2, 5)
	c := Full(g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	dense := toDense(c)
	for i := range dense {
		for j := range dense {
			if math.Abs(dense[i][j]-dense[j][i]) > 1e-15 {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// referenceGrapheneRow is the plain reading of the Graphene definition that
// Row must agree with: every neighbor wrapped by modulo and checked against
// the row so far for an alias, on every lattice, every row.
func referenceGrapheneRow(g Graphene, i int64, cols []int64, vals []float64) ([]int64, []float64) {
	cell := i / 2
	s := int(i % 2)
	x := int(cell % int64(g.Nx))
	y := int(cell / int64(g.Nx))
	site := func(x, y, s int) int64 {
		x = ((x % g.Nx) + g.Nx) % g.Nx
		y = ((y % g.Ny) + g.Ny) % g.Ny
		return 2*(int64(y)*int64(g.Nx)+int64(x)) + int64(s)
	}
	cols = append(cols, i)
	vals = append(vals, g.onsite(i))
	add := func(j int64, t float64) ([]int64, []float64) {
		if t == 0 || j == i {
			return cols, vals
		}
		for k, c := range cols {
			if c == j {
				vals[k] += -t
				return cols, vals
			}
		}
		return append(cols, j), append(vals, -t)
	}
	if s == 0 {
		for _, d := range nnAtoB {
			cols, vals = add(site(x+d[0], y+d[1], 1), g.T1)
		}
		for _, d := range nn3AtoB {
			cols, vals = add(site(x+d[0], y+d[1], 1), g.T3)
		}
	} else {
		for _, d := range nnAtoB {
			cols, vals = add(site(x-d[0], y-d[1], 0), g.T1)
		}
		for _, d := range nn3AtoB {
			cols, vals = add(site(x-d[0], y-d[1], 0), g.T3)
		}
	}
	for _, d := range nn2 {
		cols, vals = add(site(x+d[0], y+d[1], s), g.T2)
	}
	return cols, vals
}

// TestGrapheneRowMatchesReference: the interior table, the compare-and-add
// wrap and the aliasing scan gated on the lattice's width yield, for every
// row, the reference's columns and value bits once sorted — on every lattice
// up to 6×6 (where offsets alias), on the sizes the workloads use, and with
// each coupling and the disorder switched off.
func TestGrapheneRowMatchesReference(t *testing.T) {
	var lattices [][2]int
	for nx := 1; nx <= 6; nx++ {
		for ny := 1; ny <= 6; ny++ {
			lattices = append(lattices, [2]int{nx, ny})
		}
	}
	lattices = append(lattices, [2]int{32, 16}, [2]int{128, 128}, [2]int{256, 128})
	variants := map[string]func(*Graphene){
		"default":     func(*Graphene) {},
		"no T1":       func(g *Graphene) { g.T1 = 0 },
		"no T2":       func(g *Graphene) { g.T2 = 0 },
		"no T3":       func(g *Graphene) { g.T3 = 0 },
		"T1 only":     func(g *Graphene) { g.T2, g.T3 = 0, 0 },
		"no disorder": func(g *Graphene) { g.Disorder = 0 },
	}
	var gotC, wantC []int64
	var gotV, wantV []float64
	for _, l := range lattices {
		for name, vary := range variants {
			g := DefaultGraphene(l[0], l[1], 7)
			vary(&g)
			for i := int64(0); i < g.Dim(); i++ {
				gotC, gotV = g.Row(i, gotC[:0], gotV[:0])
				wantC, wantV = referenceGrapheneRow(g, i, wantC[:0], wantV[:0])
				sortRow(gotC, gotV)
				sortRow(wantC, wantV)
				if !slices.Equal(gotC, wantC) {
					t.Fatalf("%dx%d %s row %d: columns %v, reference %v", l[0], l[1], name, i, gotC, wantC)
				}
				for k := range wantV {
					if math.Float64bits(gotV[k]) != math.Float64bits(wantV[k]) {
						t.Fatalf("%dx%d %s row %d col %d: %v, reference %v", l[0], l[1], name, i, wantC[k], gotV[k], wantV[k])
					}
				}
			}
		}
	}
}

// TestGrapheneBuildGolden pins the kill workloads' row block — 8192 rows of
// the 128x128-cell sheet, block 1 of 4 — by an FNV-1a checksum of its
// RowPtr, Col and Val bits, so any change to what the generator emits fails
// here, whatever the reference above is.
func TestGrapheneBuildGolden(t *testing.T) {
	g := DefaultGraphene(128, 128, 7)
	lo, hi := BlockRange(g.Dim(), 4, 1)
	c := Build(g, lo, hi)
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, v := range c.RowPtr {
		put(uint64(v))
	}
	for _, v := range c.Col {
		put(uint64(v))
	}
	for _, v := range c.Val {
		put(math.Float64bits(v))
	}
	if c.NNZ() != 106496 || h.Sum64() != 0x469429e5d574117c {
		t.Fatalf("block [%d,%d): nnz %d, checksum %#x; golden 106496, 0x469429e5d574117c", lo, hi, c.NNZ(), h.Sum64())
	}
}

func TestLaplacian2DRowSums(t *testing.T) {
	l := Laplacian2D{Nx: 4, Ny: 3}
	c := Full(l)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior rows sum to 0; boundary rows are positive.
	x := make([]float64, l.Dim())
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, l.Dim())
	c.MulVec(x, y)
	// Row (1,1) is interior for 4x3: index 1*4+1 = 5.
	if y[5] != 0 {
		t.Fatalf("interior row sum %v", y[5])
	}
	if y[0] != 2 { // corner: 4 - 2 neighbors
		t.Fatalf("corner row sum %v", y[0])
	}
}

func TestDiagonalGenerator(t *testing.T) {
	d := Diagonal{Values: []float64{3, 1, 4, 1, 5}}
	c := Full(d)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	c.MulVec(x, y)
	want := []float64{3, 2, 12, 4, 25}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v", y)
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	g := DefaultGraphene(4, 4, 11)
	c := Full(g)
	dense := toDense(c)
	x := randomVec(int(g.Dim()), 2)
	y := make([]float64, g.Dim())
	c.MulVec(x, y)
	for i := range dense {
		var want float64
		for j := range dense[i] {
			want += dense[i][j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("row %d: %v vs %v", i, y[i], want)
		}
	}
}

func TestCSRInvariantsProperty(t *testing.T) {
	f := func(nx, ny uint8, seed uint64) bool {
		g := DefaultGraphene(int(nx%6)+2, int(ny%6)+2, seed)
		c := Full(g)
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := Full(Laplacian1D{N: 4})
	c.Col[0] = 99
	if c.Validate() == nil {
		t.Fatal("out-of-range column not caught")
	}
	c = Full(Laplacian1D{N: 4})
	c.RowPtr[1] = c.RowPtr[2] + 1
	if c.Validate() == nil {
		t.Fatal("non-monotone RowPtr not caught")
	}
}

func TestBuildPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Build(Laplacian1D{N: 4}, 2, 99)
}

func toDense(c *CSR) [][]float64 {
	n := int(c.GlobalDim)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for r := 0; r < c.LocalRows(); r++ {
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			d[int(c.RowOffset)+r][c.Col[k]] = c.Val[k]
		}
	}
	return d
}

func randomVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestRandomSparseValidAndDeterministic(t *testing.T) {
	g := RandomSparse{N: 100, NNZPerRow: 7, Seed: 3}
	c1 := Full(g)
	if err := c1.Validate(); err != nil {
		t.Fatal(err)
	}
	c2 := Full(RandomSparse{N: 100, NNZPerRow: 7, Seed: 3})
	for k := range c1.Val {
		if c1.Val[k] != c2.Val[k] || c1.Col[k] != c2.Col[k] {
			t.Fatal("not deterministic")
		}
	}
	c3 := Full(RandomSparse{N: 100, NNZPerRow: 7, Seed: 4})
	if c1.NNZ() == c3.NNZ() {
		same := true
		for k := range c1.Col {
			if c1.Col[k] != c3.Col[k] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds gave the same pattern")
		}
	}
}

func TestRandomSparseTinyDim(t *testing.T) {
	g := RandomSparse{N: 2, NNZPerRow: 10, Seed: 1}
	c := Full(g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// referenceBuild is Build as it was before the presizing and the insertion
// sort: one sort.Sort per row, Col/Val grown by append from nothing.
func referenceBuild(gen Generator, lo, hi int64) *CSR {
	c := &CSR{GlobalDim: gen.Dim(), RowOffset: lo, RowPtr: []int64{0}}
	for i := lo; i < hi; i++ {
		cols, vals := gen.Row(i, nil, nil)
		sort.Sort(&rowSorter{cols, vals})
		c.Col = append(c.Col, cols...)
		c.Val = append(c.Val, vals...)
		c.RowPtr = append(c.RowPtr, int64(len(c.Col)))
	}
	return c
}

// TestBuildBitIdenticalToSortReference: presizing and the short-row
// insertion sort change how Build gets there, not what it returns — same
// RowPtr, same columns, same value bits — for every generator, on the full
// matrix and on an interior block whose first row is not the matrix's.
func TestBuildBitIdenticalToSortReference(t *testing.T) {
	gens := map[string]Generator{
		"graphene":          DefaultGraphene(12, 9, 7),
		"graphene aliasing": DefaultGraphene(2, 2, 5),
		"laplacian1d":       Laplacian1D{N: 57},
		"laplacian2d":       Laplacian2D{Nx: 9, Ny: 7},
		"diagonal":          Diagonal{Values: randomVec(31, 4)},
		// Rows longer than the cut-off take sort.Sort, shorter ones the
		// insertion sort; 40 draws out of 300 columns rarely collide.
		"random long rows":  RandomSparse{N: 300, NNZPerRow: 40, Seed: 9},
		"random short rows": RandomSparse{N: 300, NNZPerRow: 5, Seed: 9},
	}
	for name, gen := range gens {
		dim := gen.Dim()
		for _, r := range [][2]int64{{0, dim}, {dim / 3, dim - dim/4}, {dim / 2, dim / 2}} {
			got, want := Build(gen, r[0], r[1]), referenceBuild(gen, r[0], r[1])
			if err := got.Validate(); err != nil {
				t.Fatalf("%s [%d,%d): %v", name, r[0], r[1], err)
			}
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
				t.Fatalf("%s [%d,%d): structure differs from the reference", name, r[0], r[1])
			}
			for k := range want.Val {
				if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("%s [%d,%d): value %d = %v, reference %v", name, r[0], r[1], k, got.Val[k], want.Val[k])
				}
			}
		}
	}
	long := RandomSparse{N: 300, NNZPerRow: 40, Seed: 9}
	if cols, _ := long.Row(0, nil, nil); len(cols) <= insertionSortMax {
		t.Fatalf("long-row generator yields %d entries, cut-off is %d", len(cols), insertionSortMax)
	}
}

// BenchmarkMatrixBuild builds the kill workloads' row block: 8192 rows of
// the 128x128-cell graphene sheet, one worker's quarter. CI gates its
// allocs/op and B/op and prints its ms/op. Its row loop (EachRow) is the
// serial reference's; a rescue's graphene block is written by
// Graphene.SplitRows instead (spmvm.Generate).
func BenchmarkMatrixBuild(b *testing.B) {
	gen := DefaultGraphene(128, 128, 7)
	lo, hi := BlockRange(gen.Dim(), 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := Build(gen, lo, hi); c.NNZ() == 0 {
			b.Fatal("empty block")
		}
	}
	b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(b.N), "ms/op")
}

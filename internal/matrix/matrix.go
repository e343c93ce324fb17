// Package matrix provides the sparse-matrix substrate for the Lanczos
// application: compressed sparse row (CSR) storage, on-the-fly generators
// (so no process ever reads a matrix from the file system, matching the
// paper's matrix-generation-tool approach), and reference kernels used to
// verify the distributed spMVM.
//
// The benchmark matrix mirrors the paper's: a quantum-mechanical
// tight-binding Hamiltonian of electron transport in graphene — a honeycomb
// lattice with nearest, second and third neighbor hopping plus Anderson
// disorder, giving ~13 nonzeros per row (the paper's matrix has ~12.5).
package matrix

import (
	"fmt"
	"sort"
)

// Generator produces the rows of a sparse symmetric matrix on the fly.
// Implementations must be deterministic: the same row yields the same
// entries on every call and every process.
type Generator interface {
	// Dim returns the global matrix dimension.
	Dim() int64
	// Row appends row i's (column, value) pairs to cols/vals and returns
	// the extended slices. Entries may be produced in any order; duplicate
	// columns are not allowed.
	Row(i int64, cols []int64, vals []float64) ([]int64, []float64)
}

// CSR is a block of consecutive rows of a sparse matrix in compressed
// sparse row format with global column indices.
type CSR struct {
	// GlobalDim is the dimension of the full matrix.
	GlobalDim int64
	// RowOffset is the global index of local row 0.
	RowOffset int64
	// RowPtr has LocalRows+1 entries delimiting each local row's entries.
	RowPtr []int64
	// Col holds global column indices, sorted within each row.
	Col []int64
	// Val holds the corresponding values.
	Val []float64
}

// LocalRows returns the number of rows stored in this block.
func (c *CSR) LocalRows() int { return len(c.RowPtr) - 1 }

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int64 { return c.RowPtr[len(c.RowPtr)-1] }

// EachRow generates rows [lo, hi) of gen in order and hands each to emit
// with its index in the block, sorted by column: the row loop behind Build
// (the serial reference's and the tests' blocks) and behind the spMVM
// engine's row blocks of every generator but Graphene, which writes its
// own (Graphene.SplitRows). cols and vals are scratch the next row
// overwrites, allocated once for any row the insertion sort takes. A
// graphene interior row arrives in column order, so there the sort only
// confirms it.
func EachRow(gen Generator, lo, hi int64, emit func(r int, cols []int64, vals []float64)) {
	checkRows(gen.Dim(), lo, hi)
	cols, vals := make([]int64, 0, insertionSortMax), make([]float64, 0, insertionSortMax)
	for i := lo; i < hi; i++ {
		cols, vals = gen.Row(i, cols[:0], vals[:0])
		sortRow(cols, vals)
		emit(int(i-lo), cols, vals)
	}
}

// checkRows panics unless [lo, hi) is a row range of a dim-row matrix.
func checkRows(dim, lo, hi int64) {
	if lo < 0 || hi < lo || hi > dim {
		panic(fmt.Sprintf("matrix: invalid row range [%d,%d) of %d", lo, hi, dim))
	}
}

// RowSplit is rows [Lo, Hi) of a matrix in the layout the spMVM engine
// keeps (spmvm.Generate): each row's entries in column order, split by
// column into a local part, the columns inside [Lo, Hi) as int32(col−Lo),
// and a remote part under their global columns, each part with one row
// pointer per row.
type RowSplit struct {
	Lo, Hi    int64
	LocalPtr  []int64 // len rows+1; row r's local entries are [LocalPtr[r], LocalPtr[r+1])
	LocalCol  []int32
	LocalVal  []float64
	RemotePtr []int64 // like LocalPtr
	RemoteCol []int64
	RemoteVal []float64
}

// NewRowSplit returns an empty RowSplit of rows [lo, hi) sized for n
// entries: the local part all of them, the remote part, which holds a few
// percent of a lattice block's entries, a sixteenth. Past that the parts
// grow by append.
func NewRowSplit(lo, hi int64, n int) RowSplit {
	rows := int(hi - lo)
	return RowSplit{
		Lo: lo, Hi: hi,
		LocalPtr: make([]int64, 1, rows+1), LocalCol: make([]int32, 0, n), LocalVal: make([]float64, 0, n),
		RemotePtr: make([]int64, 1, rows+1), RemoteCol: make([]int64, 0, n/16), RemoteVal: make([]float64, 0, n/16),
	}
}

// AppendRow appends the next row, its entries sorted by column, each to
// its part.
func (b *RowSplit) AppendRow(cols []int64, vals []float64) {
	for k, col := range cols {
		if col >= b.Lo && col < b.Hi {
			b.LocalCol = append(b.LocalCol, int32(col-b.Lo))
			b.LocalVal = append(b.LocalVal, vals[k])
		} else {
			b.RemoteCol = append(b.RemoteCol, col)
			b.RemoteVal = append(b.RemoteVal, vals[k])
		}
	}
	b.LocalPtr = append(b.LocalPtr, int64(len(b.LocalCol)))
	b.RemotePtr = append(b.RemotePtr, int64(len(b.RemoteCol)))
}

// Build materializes rows [lo, hi) of gen as a CSR block: the serial
// reference's form, and the tests'. The spMVM engine generates its blocks
// with spmvm.Generate instead, straight into the parts it keeps. Col and
// Val are sized once, from the first row (the generators' rows are all
// about as long as each other); a block with longer rows further down
// still grows by append.
func Build(gen Generator, lo, hi int64) *CSR {
	c := &CSR{GlobalDim: gen.Dim(), RowOffset: lo}
	EachRow(gen, lo, hi, func(r int, cols []int64, vals []float64) {
		if r == 0 {
			rows := int(hi - lo)
			n := len(cols) * rows
			c.RowPtr = make([]int64, 1, rows+1)
			c.Col, c.Val = make([]int64, 0, n), make([]float64, 0, n)
		}
		c.Col = append(c.Col, cols...)
		c.Val = append(c.Val, vals...)
		c.RowPtr = append(c.RowPtr, int64(len(c.Col)))
	})
	if c.RowPtr == nil { // no rows
		c.RowPtr = []int64{0}
	}
	return c
}

// Full materializes the whole matrix (for tests and serial references).
func Full(gen Generator) *CSR { return Build(gen, 0, gen.Dim()) }

// Validate checks the CSR invariants: monotone row pointers, in-range and
// strictly increasing column indices per row.
func (c *CSR) Validate() error {
	if int64(len(c.Col)) != c.RowPtr[len(c.RowPtr)-1] || len(c.Col) != len(c.Val) {
		return fmt.Errorf("matrix: inconsistent lengths: col=%d val=%d rowptr end=%d",
			len(c.Col), len(c.Val), c.RowPtr[len(c.RowPtr)-1])
	}
	for r := 0; r < c.LocalRows(); r++ {
		if c.RowPtr[r] > c.RowPtr[r+1] {
			return fmt.Errorf("matrix: row %d: non-monotone RowPtr", r)
		}
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			if c.Col[k] < 0 || c.Col[k] >= c.GlobalDim {
				return fmt.Errorf("matrix: row %d: column %d out of range", r, c.Col[k])
			}
			if k > c.RowPtr[r] && c.Col[k] <= c.Col[k-1] {
				return fmt.Errorf("matrix: row %d: columns not strictly increasing", r)
			}
		}
	}
	return nil
}

// MulVec computes y = A·x for this row block: x is the full global vector,
// y has LocalRows entries. The serial reference for the distributed spMVM,
// with its row loop: each row's window sliced once, summed in one
// accumulator in column order.
func (c *CSR) MulVec(x, y []float64) {
	if int64(len(x)) != c.GlobalDim {
		panic(fmt.Sprintf("matrix: MulVec x has %d entries, want %d", len(x), c.GlobalDim))
	}
	if len(y) != c.LocalRows() {
		panic(fmt.Sprintf("matrix: MulVec y has %d entries, want %d", len(y), c.LocalRows()))
	}
	ends := c.RowPtr[1:]
	ends = ends[:len(y)]
	a := c.RowPtr[0]
	for r, b := range ends {
		cols := c.Col[a:b]
		vals := c.Val[a:b][:len(cols)]
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[r] = s
		a = b
	}
}

// RowBounds returns Gershgorin disc bounds [lo, hi] containing every
// eigenvalue of the (symmetric) matrix block's rows.
func (c *CSR) RowBounds() (lo, hi float64) {
	first := true
	for r := 0; r < c.LocalRows(); r++ {
		var diag, radius float64
		gi := c.RowOffset + int64(r)
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			if c.Col[k] == gi {
				diag = c.Val[k]
			} else if c.Val[k] >= 0 {
				radius += c.Val[k]
			} else {
				radius -= c.Val[k]
			}
		}
		l, h := diag-radius, diag+radius
		if first || l < lo {
			lo = l
		}
		if first || h > hi {
			hi = h
		}
		first = false
	}
	return lo, hi
}

// BlockRange returns the rows [lo, hi) owned by block `part` of `nparts`
// under balanced block distribution of dim rows.
func BlockRange(dim int64, nparts, part int) (lo, hi int64) {
	if part < 0 || part >= nparts {
		panic(fmt.Sprintf("matrix: part %d of %d", part, nparts))
	}
	base := dim / int64(nparts)
	rem := dim % int64(nparts)
	lo = int64(part)*base + min(int64(part), rem)
	hi = lo + base
	if int64(part) < rem {
		hi++
	}
	return lo, hi
}

// insertionSortMax is the longest row sortRow sorts by insertion. The
// lattice generators' rows (13 entries for graphene) stay far below it.
const insertionSortMax = 24

// sortRow sorts one row by column, values alongside. Columns are distinct
// (Generator's contract), so every correct sort yields the same row; short
// rows take an insertion sort that needs no sort.Interface value on the
// heap.
func sortRow(cols []int64, vals []float64) {
	if len(cols) > insertionSortMax {
		sort.Sort(&rowSorter{cols, vals})
		return
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i
		for ; j > 0 && cols[j-1] > c; j-- {
			cols[j], vals[j] = cols[j-1], vals[j-1]
		}
		cols[j], vals[j] = c, v
	}
}

type rowSorter struct {
	cols []int64
	vals []float64
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

package matrix

// Graphene generates the tight-binding Hamiltonian of a graphene sheet:
// a periodic honeycomb lattice of Nx×Ny unit cells with two sites (A, B)
// per cell. Site index = 2*(y*Nx + x) + s with s∈{0 (A), 1 (B)}.
//
// The Hamiltonian is
//
//	H = Σ_i ε_i |i⟩⟨i| − t1 Σ_<ij> |i⟩⟨j| − t2 Σ_<<ij>> |i⟩⟨j| − t3 Σ_<<<ij>>> |i⟩⟨j|
//
// with nearest (3 bonds/site), second (6) and third (3) neighbor hopping
// and Anderson on-site disorder ε_i drawn deterministically from
// [-W/2, W/2] by hashing (Seed, i) — so every process can generate its own
// row block without communication or file I/O, exactly like the matrix
// generation tool used in the paper. With all couplings enabled each row
// has 13 nonzeros (paper's matrix: ~12.5 nnz/row).
type Graphene struct {
	// Nx, Ny are the unit-cell counts (periodic boundary conditions).
	Nx, Ny int
	// T1, T2, T3 are the hopping amplitudes (T1 ≈ 2.7 eV in graphene).
	T1, T2, T3 float64
	// Disorder is the Anderson disorder width W.
	Disorder float64
	// Seed selects the disorder realization.
	Seed uint64
}

// DefaultGraphene returns the benchmark configuration used by the
// experiment harness: all three hoppings on, moderate disorder.
func DefaultGraphene(nx, ny int, seed uint64) Graphene {
	return Graphene{Nx: nx, Ny: ny, T1: 1.0, T2: 0.1, T3: 0.05, Disorder: 0.5, Seed: seed}
}

// Dim implements Generator.
func (g Graphene) Dim() int64 { return 2 * int64(g.Nx) * int64(g.Ny) }

// site composes a global index from cell coordinates and sublattice,
// wrapping periodically a coordinate at most one cell outside the lattice.
func (g Graphene) site(x, y, s int) int64 {
	if x < 0 {
		x += g.Nx
	} else if x >= g.Nx {
		x -= g.Nx
	}
	if y < 0 {
		y += g.Ny
	} else if y >= g.Ny {
		y -= g.Ny
	}
	return 2*(int64(y)*int64(g.Nx)+int64(x)) + int64(s)
}

// Neighbor cell offsets. A→B nearest offsets and their A←B mirrors; the
// second-neighbor offsets are sublattice-preserving and self-mirroring;
// the third-neighbor offsets again connect A→B.
var (
	nnAtoB  = [3][2]int{{0, 0}, {-1, 0}, {0, -1}}
	nn3AtoB = [3][2]int{{1, 0}, {0, 1}, {-1, -1}}
	nn2     = [6][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, -1}, {-1, 1}}
)

// interiorHop is one entry of an interior row: column i + dy·2Nx + d, value
// −T_t, or the on-site energy for t = 0.
type interiorHop struct{ dy, d, t int8 }

// interiorRows are the rows of an interior cell, A and B sublattice, in
// column order: the offsets above as index deltas (a neighbor at cell
// offset (dx, dy) on sublattice s' is i + dy·2Nx + 2dx + s' − s), sorted by
// (dy, d). That is column order because a d of one dy exceeds a d of the
// next by at most 5, less than 2Nx for Nx ≥ 3.
var interiorRows = [2][13]interiorHop{
	{{-1, -1, 3}, {-1, 0, 2}, {-1, 1, 1}, {-1, 2, 2}, {0, -2, 2}, {0, -1, 1}, {0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {1, -2, 2}, {1, 0, 2}, {1, 1, 3}},
	{{-1, -1, 3}, {-1, 0, 2}, {-1, 2, 2}, {0, -3, 3}, {0, -2, 2}, {0, -1, 1}, {0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {1, -2, 2}, {1, -1, 1}, {1, 0, 2}, {1, 1, 3}},
}

// Row implements Generator. Locating the cell costs the row one division;
// after that, a row of an interior cell (0 < x < Nx−1 and 0 < y < Ny−1, so
// the lattice is at least 3 cells wide) wraps nothing and aliases nothing:
// it is interiorRows at fixed index deltas, emitted already in column order,
// so Build's sort only confirms it. A boundary row wraps each offset with a
// compare-and-add, and only on a lattice narrower than 3 cells can two
// offsets meet, so only there does it scan for duplicates.
func (g Graphene) Row(i int64, cols []int64, vals []float64) ([]int64, []float64) {
	cell, s, nx := i>>1, int(i&1), int64(g.Nx)
	x, y := int(cell%nx), int(cell/nx)

	if x > 0 && x < g.Nx-1 && y > 0 && y < g.Ny-1 {
		w := 2 * nx
		v := [4]float64{g.onsite(i), -g.T1, -g.T2, -g.T3}
		for _, h := range &interiorRows[s] {
			if h.t != 0 && v[h.t] == 0 {
				continue // coupling switched off
			}
			cols = append(cols, i+int64(h.dy)*w+int64(h.d))
			vals = append(vals, v[h.t])
		}
		return cols, vals
	}

	// On-site energy (always emitted so the sparsity pattern is uniform).
	cols = append(cols, i)
	vals = append(vals, g.onsite(i))

	aliasing := g.Nx < 3 || g.Ny < 3
	add := func(j int64, t float64) ([]int64, []float64) {
		if t == 0 {
			return cols, vals
		}
		if aliasing {
			// Wrapping can map an offset onto the row's own site, or two
			// offsets onto one site: drop the first, accumulate the second
			// instead of duplicating the column.
			if j == i {
				return cols, vals
			}
			for k, c := range cols {
				if c == j {
					vals[k] += -t
					return cols, vals
				}
			}
		}
		return append(cols, j), append(vals, -t)
	}

	if s == 0 { // A site
		for _, d := range nnAtoB {
			cols, vals = add(g.site(x+d[0], y+d[1], 1), g.T1)
		}
		for _, d := range nn3AtoB {
			cols, vals = add(g.site(x+d[0], y+d[1], 1), g.T3)
		}
	} else { // B site: mirrored offsets
		for _, d := range nnAtoB {
			cols, vals = add(g.site(x-d[0], y-d[1], 0), g.T1)
		}
		for _, d := range nn3AtoB {
			cols, vals = add(g.site(x-d[0], y-d[1], 0), g.T3)
		}
	}
	for _, d := range nn2 {
		cols, vals = add(g.site(x+d[0], y+d[1], s), g.T2)
	}
	return cols, vals
}

// onsite returns the deterministic Anderson disorder energy of site i.
func (g Graphene) onsite(i int64) float64 {
	if g.Disorder == 0 {
		return 0
	}
	h := splitmix64(g.Seed ^ uint64(i)*0x9E3779B97F4A7C15)
	u := float64(h>>11) / float64(1<<53) // uniform [0,1)
	return (u - 0.5) * g.Disorder
}

// splitmix64 is the SplitMix64 mixing function: a high-quality, allocation
// free hash used for reproducible per-site randomness.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

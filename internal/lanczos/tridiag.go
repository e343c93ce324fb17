// Package lanczos implements the paper's application: a distributed Lanczos
// eigensolver for the lowest eigenvalues of a sparse symmetric matrix
// (Algorithm 1), built on the spMVM library. Each iteration computes the
// new Lanczos vector and the tridiagonal coefficients α, β. The iteration
// runs a fixed number of steps, as the paper's benchmarks do; the
// approximated minimum eigenvalues are extracted from the tridiagonal
// matrix with the QL method once, when the result is collected
// (Solver.Eigenvalues).
//
// The solver state is checkpointable exactly as in the paper: the
// checkpoint holds two consecutive Lanczos vectors plus α and β.
package lanczos

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrNoConvergence reports that the QL iteration failed to converge
// (pathological input; 30 sweeps per eigenvalue is the classical bound).
var ErrNoConvergence = errors.New("lanczos: QL iteration did not converge")

// TridiagEigenvalues computes all eigenvalues of the symmetric tridiagonal
// matrix with diagonal d[0..n) and subdiagonal e[0..n-1), using the QL
// algorithm with implicit shifts (the "QL method" of the paper). The input
// slices are not modified; eigenvalues are returned in ascending order.
func TridiagEigenvalues(d, e []float64) ([]float64, error) {
	n := len(d)
	if len(e) != n-1 && !(n == 0 && len(e) == 0) {
		return nil, fmt.Errorf("lanczos: subdiagonal length %d for dimension %d", len(e), n)
	}
	if n == 0 {
		return nil, nil
	}
	dd, ee := make([]float64, n), make([]float64, n)
	copy(dd, d)
	copy(ee[:n-1], e)
	ee[n-1] = 0

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a negligible subdiagonal element.
			m := l
			for ; m < n-1; m++ {
				s := math.Abs(dd[m]) + math.Abs(dd[m+1])
				if math.Abs(ee[m]) <= eps*s {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 30*n {
				return nil, ErrNoConvergence
			}
			// Implicit shift from the 2x2 block at l.
			g := (dd[l+1] - dd[l]) / (2 * ee[l])
			r := math.Hypot(g, 1)
			g = dd[m] - dd[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = math.Hypot(f, g)
				ee[i+1] = r
				if r == 0 { // recover from rotation underflow
					dd[i+1] -= p
					ee[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = dd[i+1] - p
				r = (dd[i]-g)*s + 2*c*b
				p = s * r
				dd[i+1] = g + p
				g = c*r - b
			}
			if underflow {
				continue
			}
			dd[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}
	slices.Sort(dd)
	return dd, nil
}

const eps = 2.220446049250313e-16 // IEEE-754 double machine epsilon

// SturmCount returns the number of eigenvalues of the symmetric tridiagonal
// matrix (d, e) that are strictly smaller than x, via the Sturm sequence of
// leading principal minors. It is the independent verifier for the QL
// implementation.
func SturmCount(d, e []float64, x float64) int {
	count := 0
	q := 1.0
	for i := range d {
		var e2 float64
		if i > 0 {
			e2 = e[i-1] * e[i-1]
		}
		if q != 0 {
			q = d[i] - x - e2/q
		} else {
			// A zero pivot: perturb (standard safeguard).
			q = d[i] - x - math.Abs(e[i-1])/eps
		}
		if q < 0 {
			count++
		}
	}
	return count
}

// LowestK returns the k smallest values of xs (which must be sorted
// ascending), or all of them when k exceeds the length.
func LowestK(xs []float64, k int) []float64 {
	if k > len(xs) {
		k = len(xs)
	}
	out := make([]float64, k)
	copy(out, xs[:k])
	return out
}

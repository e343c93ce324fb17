package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gaspi"
	"repro/internal/matrix"
)

// HeatConfig parameterizes the 1-D heat-equation application.
type HeatConfig struct {
	// N is the number of grid points (Dirichlet boundaries).
	N int64
	// R is the explicit-Euler coefficient r = α·Δt/Δx² (stable for r ≤ ½).
	R float64
	// Steps is the number of time steps.
	Steps int64
}

// Heat integrates u_t = α·u_xx with an explicit scheme
//
//	u^{k+1} = u^k − r·(A·u^k),   A = tridiag(−1, 2, −1),
//
// distributed with the same spMVM library and fault-tolerance machinery as
// the Lanczos application — the "different application" witness for the
// paper's generality claim. With the initial condition
// u⁰_i = sin(π(i+1)/(N+1)) the solution stays a pure mode:
// u^k = (1 − r·λ₁)^k · u⁰ with λ₁ = 2 − 2cos(π/(N+1)), so correctness after
// failures is verifiable in closed form.
type Heat struct {
	rowBlock // Init, Prewarm, Close
	cfg      HeatConfig
	u, w     []float64
	it       int64
	cp       []byte // Checkpoint's staging buffer
}

var _ core.App = (*Heat)(nil)

// NewHeat builds the application.
func NewHeat(cfg HeatConfig) *Heat {
	return &Heat{rowBlock: rowBlock{gen: matrix.Laplacian1D{N: cfg.N}}, cfg: cfg}
}

// U returns the owned chunk of the current solution.
func (h *Heat) U() []float64 { return h.u }

// Iter returns the number of completed time steps.
func (h *Heat) Iter() int64 { return h.it }

// Amplitude returns the analytic amplitude factor after k steps.
func (h *Heat) Amplitude(k int64) float64 {
	lambda1 := 2 - 2*math.Cos(math.Pi/float64(h.cfg.N+1))
	return math.Pow(1-h.cfg.R*lambda1, float64(k))
}

// Exact returns the analytic solution value at global grid point i after k
// steps.
func (h *Heat) Exact(i, k int64) float64 {
	return h.Amplitude(k) * math.Sin(math.Pi*float64(i+1)/float64(h.cfg.N+1))
}

// Rebuild implements core.App.
func (h *Heat) Rebuild(ctx *core.Ctx) error {
	eng, err := h.rebind(ctx)
	if err != nil {
		return err
	}
	n := eng.LocalRows()
	if h.u == nil {
		h.u = make([]float64, n)
	}
	h.w = make([]float64, n)
	return nil
}

// Checkpoint implements core.App: the solution chunk plus the step count,
// staged into a buffer reused across calls.
func (h *Heat) Checkpoint(*core.Ctx) ([]byte, error) {
	n := 8 + 8*len(h.u)
	if len(h.cp) != n {
		h.cp = make([]byte, n)
	}
	b := h.cp
	binary.LittleEndian.PutUint64(b, uint64(h.it))
	for i, x := range h.u {
		binary.LittleEndian.PutUint64(b[8+8*i:], math.Float64bits(x))
	}
	return b, nil
}

// Restore implements core.App.
func (h *Heat) Restore(ctx *core.Ctx, payload []byte, iter int64) error {
	n := h.eng.LocalRows()
	if payload == nil {
		h.u = make([]float64, n)
		lo := h.split.Plan().Lo
		for i := range h.u {
			h.u[i] = math.Sin(math.Pi * float64(lo+int64(i)+1) / float64(h.cfg.N+1))
		}
		h.it = 0
		return nil
	}
	if len(payload) != 8+8*n {
		return fmt.Errorf("apps: heat checkpoint size %d, want %d", len(payload), 8+8*n)
	}
	h.it = int64(binary.LittleEndian.Uint64(payload))
	if h.it != iter {
		return fmt.Errorf("apps: heat checkpoint at step %d under version %d", h.it, iter)
	}
	h.u = make([]float64, n)
	for i := range h.u {
		h.u[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8+8*i:]))
	}
	return nil
}

// Step implements core.App: one explicit Euler step plus a residual
// allreduce. The reduction doubles as the inter-iteration synchronization
// the halo-exchange flow control relies on.
func (h *Heat) Step(ctx *core.Ctx, iter int64) error {
	if h.it != iter {
		return fmt.Errorf("apps: heat at step %d, framework at %d", h.it, iter)
	}
	if err := h.eng.SpMV(h.u, h.w, iter); err != nil {
		return err
	}
	var localMax float64
	for i := range h.u {
		h.u[i] -= h.cfg.R * h.w[i]
		if d := math.Abs(h.w[i]); d > localMax {
			localMax = d
		}
	}
	if _, err := ctx.Comm.AllreduceF64([]float64{localMax}, gaspi.OpMax); err != nil {
		// Roll back the local update so a re-executed step starts from a
		// consistent u (the halo values consumed above were for this step).
		for i := range h.u {
			h.u[i] += h.cfg.R * h.w[i]
		}
		return err
	}
	h.it++
	return nil
}

// Finished implements core.App.
func (h *Heat) Finished(iter int64) bool { return iter >= h.cfg.Steps }

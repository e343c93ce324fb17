package spmvm

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// TestSpMVBackToBackNoBarrier drives iterations with no inter-iteration
// collective at all: the parity-alternated halo regions must keep
// producers from clobbering values a consumer has not yet read. The
// graphene pattern is symmetric (every consumer is also a producer), which
// is the documented requirement for barrier-free operation.
func TestSpMVBackToBackNoBarrier(t *testing.T) {
	gen := matrix.DefaultGraphene(8, 6, 42)
	dim := gen.Dim()
	const workers = 4
	const iters = 6

	xg := globalVec(dim)
	full := matrix.Full(gen)
	ref := append([]float64(nil), xg...)
	for it := 0; it < iters; it++ {
		y := make([]float64, dim)
		full.MulVec(ref, y)
		ref = y
	}

	var mu sync.Mutex
	got := make([]float64, dim)
	runWorkers(t, workers, func(c Comm) error {
		lo, hi := matrix.BlockRange(dim, workers, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		eng, err := NewEngine(c, plan, blk, 7)
		if err != nil {
			return err
		}
		defer eng.Close()
		x := append([]float64(nil), xg[lo:hi]...)
		y := make([]float64, hi-lo)
		for it := 0; it < iters; it++ {
			if err := eng.SpMV(x, y, int64(it)); err != nil {
				return fmt.Errorf("iter %d: %w", it, err)
			}
			x, y = y, x
		}
		mu.Lock()
		copy(got[lo:hi], x)
		mu.Unlock()
		return c.Barrier()
	})

	for i := range ref {
		scale := math.Max(1, math.Abs(ref[i]))
		if math.Abs(got[i]-ref[i]) > 1e-9*scale {
			t.Fatalf("row %d: got %v want %v", i, got[i], ref[i])
		}
	}
}

// TestSpMVWorkerPoolReuse checks the persistent pool path end to end:
// threaded engines across several SpMV calls (the pool is reused, not
// respawned) and a clean Close.
func TestSpMVWorkerPoolReuse(t *testing.T) {
	gen := matrix.DefaultGraphene(10, 10, 3)
	dim := gen.Dim()
	full := matrix.Full(gen)
	x := globalVec(dim)
	want := make([]float64, dim)
	full.MulVec(x, want)

	runWorkers(t, 2, func(c Comm) error {
		lo, hi := matrix.BlockRange(dim, 2, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		eng, err := NewEngine(c, plan, blk, 7)
		if err != nil {
			return err
		}
		defer eng.Close()
		eng.Threads = 4
		y := make([]float64, hi-lo)
		for rep := 0; rep < 3; rep++ {
			if err := eng.SpMV(x[lo:hi], y, int64(2*rep)); err != nil { // even its: same parity reuse
				return err
			}
			for i := range y {
				if math.Abs(y[i]-want[lo+int64(i)]) > 1e-12 {
					return fmt.Errorf("rep %d row %d: %v vs %v", rep, i, y[i], want[lo+int64(i)])
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

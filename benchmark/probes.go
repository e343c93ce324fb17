package main

import (
	"math"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspi"
	"repro/internal/matrix"
)

// probeResults are the traced pass's direct calls into single layers,
// below the application: what an operation costs when nothing else runs.
type probeResults struct {
	PingpongUS, BarrierUS, Allreduce4US float64
	SerialItersPerS                     float64
	MatrixBuildMS                       float64
	NNZ                                 int64
	Err                                 error
}

const (
	probeOps  = 400
	probeWarm = 50
	probeSeg  = gaspi.SegmentID(3)
	// serialProbe is how long the single-threaded baseline iterates.
	serialProbe = 500 * time.Millisecond
)

// runProbes measures, on a bare four-rank GASPI job with the workloads'
// latency model: a notified one-sided write there and back, a barrier and
// a one-element allreduce (medians over probeOps operations, timed on rank
// 0); and on the workload's matrix: a direct build of rank 0's row block
// and a plain single-threaded Lanczos over the full matrix, the serial
// baseline.
func runProbes(gen matrix.Graphene) probeResults {
	var res probeResults
	var pp, bar, ar []float64
	cfg := gaspi.Config{
		Procs:   workers,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
		Seed:    1,
	}
	job := gaspi.Launch(cfg, func(p *gaspi.Proc) error {
		if err := p.SegmentCreate(probeSeg, 64); err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		payload := make([]byte, 8)
		in, out := []float64{1}, []float64{0}
		me := p.Rank()
		for i := 0; i < probeWarm+probeOps; i++ {
			t0 := now()
			switch me {
			case 0:
				if err := p.WriteNotify(1, probeSeg, 0, payload, 0, 1, 0); err != nil {
					return err
				}
				if err := awaitNotif(p); err != nil {
					return err
				}
			case 1:
				if err := awaitNotif(p); err != nil {
					return err
				}
				if err := p.WriteNotify(0, probeSeg, 0, payload, 0, 1, 0); err != nil {
					return err
				}
			}
			t1 := now()
			if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
				return err
			}
			t2 := now()
			if err := p.AllreduceF64Into(gaspi.GroupAll, in, out, gaspi.OpSum, gaspi.Block); err != nil {
				return err
			}
			t3 := now()
			if me == 0 && i >= probeWarm {
				pp = append(pp, float64(t1-t0)/1e3)
				bar = append(bar, float64(t2-t1)/1e3)
				ar = append(ar, float64(t3-t2)/1e3)
			}
			if me <= 1 {
				if err := p.WaitQueue(0, gaspi.Block); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for _, r := range job.Wait() {
		if r.Err != nil && res.Err == nil {
			res.Err = r.Err
		}
	}
	job.Close()
	res.PingpongUS, res.BarrierUS, res.Allreduce4US = median(pp), median(bar), median(ar)

	lo, hi := matrix.BlockRange(gen.Dim(), workers, 0)
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := now()
		matrix.Build(gen, lo, hi)
		builds = append(builds, float64(now()-t0)/1e6)
	}
	res.MatrixBuildMS = median(builds)

	full := matrix.Full(gen)
	res.NNZ = full.NNZ()
	res.SerialItersPerS = serialLanczosRate(full, serialProbe)
	return res
}

func awaitNotif(p *gaspi.Proc) error {
	if _, err := p.NotifyWaitsome(probeSeg, 0, 1, gaspi.Block); err != nil {
		return err
	}
	_, err := p.NotifyReset(probeSeg, 0)
	return err
}

// serialLanczosRate runs a plain single-threaded Lanczos (Algorithm 1 of the
// paper: MulVec, dot, axpy, norm, scale) on the whole matrix for at least d
// and returns iterations per second: the baseline with no communication
// layer, no fault tolerance and no checkpoints. The start vector is
// arbitrary: only the time is used.
func serialLanczosRate(m *matrix.CSR, d time.Duration) float64 {
	n := m.LocalRows()
	v, vprev, w := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	var beta float64
	t0, iters := now(), 0
	for now()-t0 < int64(d) {
		m.MulVec(v, w)
		var alpha float64
		for i := range w {
			alpha += w[i] * v[i]
		}
		var nb float64
		for i := range w {
			w[i] -= alpha*v[i] + beta*vprev[i]
			nb += w[i] * w[i]
		}
		iters++
		if nb < 1e-300 {
			continue // Krylov space exhausted: same work on the same vectors
		}
		beta = math.Sqrt(nb)
		vprev, v = v, vprev
		for i := range v {
			v[i] = w[i] / beta
		}
	}
	return float64(iters) / (float64(now()-t0) / 1e9)
}

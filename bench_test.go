package repro

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/spmvm"
	"repro/internal/trace"
)

// The benchmarks regenerate the paper's evaluation artifacts:
//
//   - BenchmarkFig4Scenario/*: the seven bars of Figure 4 (runtime of the
//     fault-tolerant Lanczos under baseline/failure scenarios). Custom
//     metrics report the phase decomposition in model seconds.
//   - BenchmarkTable1PingScan/*: Table I row 1 — FD ping scan time vs
//     node count (linear, ~1 model-ms per process).
//   - BenchmarkTable1Detection/*: Table I row 2 — failure detection +
//     acknowledgment time after one kill -9 (flat in node count).
//   - BenchmarkDetectorAblation/*: §IV.A.b — dedicated FD vs all-to-all vs
//     neighbor-ring failure-free cost.
//
// The remaining benchmarks profile the substrates (spMVM halo exchange,
// collectives, group commit, checkpoint write, QL eigensolver).

func benchFig4Config() experiment.Fig4Config {
	// Every kill of every bar lands inside the 80 iterations: at interval
	// 10 the last one ("3 fail recovery") is at iteration 52.
	return experiment.Fig4Config{
		StudyConfig:     experiment.StudyConfig{Workers: 8, Spares: 3, Iters: 80, Nx: 32, Ny: 16, TimeScale: 500, Seed: 42},
		CheckpointEvery: 10,
		Threads:         8,
	}
}

func BenchmarkFig4Scenario(b *testing.B) {
	full, err := experiment.RunFig4(benchFig4Config())
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range full.Scenarios {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			// The scenario already ran once (full sweep above): account its
			// wall time once, then report its decomposition — after the
			// loop, since ResetTimer drops metrics reported before it.
			for i := 0; i < b.N; i++ {
				if i == 0 {
					time.Sleep(sc.Wall)
				}
			}
			ts := full.Cfg.TimeScale
			b.ReportMetric(experiment.Model(sc.Phases[trace.PhaseRedoWork], ts).Seconds(), "model-redo-s")
			b.ReportMetric(experiment.Model(sc.Phases[trace.PhaseReinit], ts).Seconds(), "model-reinit-s")
			b.ReportMetric(experiment.Model(sc.Phases[trace.PhaseDetect], ts).Seconds(), "model-detect-s")
			b.ReportMetric(float64(sc.Recoveries), "recoveries")
			b.ReportMetric(experiment.Model(sc.Wall, ts).Seconds(), "model-total-s")
		})
	}
}

func BenchmarkTable1PingScan(b *testing.B) {
	cal := experiment.PaperCalibration()
	// Scale 100 keeps the ping timeout at 10 ms: ample headroom for Go
	// scheduler noise with hundreds of simulated processes.
	const timeScale = 100
	for _, nodes := range []int{8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("nodes-%d", nodes), func(b *testing.B) {
			lay := ft.Layout{Procs: nodes, Spares: 1}
			ccfg := experiment.ClusterConfig(nodes, cal, timeScale, 1)
			ftcfg := experiment.FTConfig(cal, timeScale, 1)
			ready := make(chan *ft.Detector, 1)
			cl := cluster.New(ccfg, func(ctx *cluster.ProcCtx) error {
				p := ctx.Proc
				if err := ft.CreateBoard(p, lay); err != nil {
					return err
				}
				if p.Rank() == 0 {
					// Hand the detector to the bench harness; the process
					// itself idles (the harness drives Scan directly).
					ready <- ft.NewDetector(p, lay, ftcfg, trace.NewRecorder())
				}
				_, err := p.NotifyWaitsome(ft.SegBoard, ft.NotifShutdown, 1, gaspi.Block)
				return err
			})
			defer cl.Shutdown()
			d := <-ready
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := d.Scan(); len(got) != 0 {
					b.Fatalf("spurious failures: %v", got)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(nodes-1), "pings/scan")
		})
	}
}

func BenchmarkTable1Detection(b *testing.B) {
	cal := experiment.PaperCalibration()
	for _, nodes := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("nodes-%d", nodes), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunTable1(experiment.Table1Config{
					NodeCounts: []int{nodes},
					Runs:       1,
					CleanScans: 1,
					TimeScale:  500,
					Seed:       int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Rows[0].DetectMean
			}
			b.ReportMetric(experiment.Model(total/time.Duration(b.N), 500).Seconds(), "model-detect-s")
			_ = cal
		})
	}
}

func BenchmarkDetectorAblation(b *testing.B) {
	res, err := experiment.RunAblation(experiment.AblationConfig{
		StudyConfig: experiment.StudyConfig{Workers: 6, Iters: 40, Nx: 16, Ny: 8, TimeScale: 500, Seed: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range res.Rows {
		row := row
		b.Run(row.Name, func(b *testing.B) {
			b.ReportMetric(float64(row.Pings), "pings")
			b.ReportMetric(row.OverheadPct, "overhead-%")
			for i := 0; i < b.N; i++ {
				if i == 0 {
					time.Sleep(row.Wall)
				}
			}
		})
	}
	b.Run("sim-failure-serial-vs-threaded", func(b *testing.B) {
		b.ReportMetric(experiment.Model(res.SerialDetect, 500).Seconds(), "serial-model-s")
		b.ReportMetric(experiment.Model(res.ThreadedDetect, 500).Seconds(), "threaded-model-s")
	})
}

// --- substrate micro-benchmarks ------------------------------------------------

func benchJob(b *testing.B, procs int, main func(p *gaspi.Proc) error) {
	b.Helper()
	benchJobCfg(b, gaspi.Config{
		Procs:   procs,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
	}, main)
}

func benchJobCfg(b *testing.B, cfg gaspi.Config, main func(p *gaspi.Proc) error) {
	b.Helper()
	job := gaspi.Launch(cfg, main)
	res, ok := job.WaitTimeout(5 * time.Minute)
	if !ok {
		b.Fatal("bench job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			b.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	job.Close()
}

func BenchmarkBarrier(b *testing.B) {
	for _, procs := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			benchJob(b, procs, func(p *gaspi.Proc) error {
				for i := 0; i < b.N; i++ {
					if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for _, procs := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			in := []float64{1, 2, 3, 4}
			benchJob(b, procs, func(p *gaspi.Proc) error {
				for i := 0; i < b.N; i++ {
					if _, err := p.AllreduceF64(gaspi.GroupAll, in, gaspi.OpSum, gaspi.Block); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func BenchmarkProcPing(b *testing.B) {
	benchJob(b, 2, func(p *gaspi.Proc) error {
		if p.Rank() != 0 {
			_, err := p.NotifyWaitsome(0, 0, 1, time.Duration(b.N)*time.Second+time.Second)
			if errors.Is(err, gaspi.ErrTimeout) || errors.Is(err, gaspi.ErrInvalid) {
				return nil
			}
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := p.ProcPing(1, gaspi.Block); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkGroupCommit(b *testing.B) {
	// The paper's OHF2: tear down and recommit a worker group.
	for _, procs := range []int{8, 32} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			benchJob(b, procs, func(p *gaspi.Proc) error {
				for i := 0; i < b.N; i++ {
					gid := gaspi.GroupID(100 + i)
					if err := p.GroupCreate(gid); err != nil {
						return err
					}
					for r := 0; r < procs; r++ {
						if err := p.GroupAdd(gid, gaspi.Rank(r)); err != nil {
							return err
						}
					}
					if err := p.GroupCommit(gid, gaspi.Block); err != nil {
						return err
					}
					if err := p.Barrier(gid, gaspi.Block); err != nil {
						return err
					}
					p.GroupDelete(gid)
				}
				return nil
			})
		})
	}
}

func BenchmarkWriteNotify(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("bytes-%d", size), func(b *testing.B) {
			data := make([]byte, size)
			benchJob(b, 2, func(p *gaspi.Proc) error {
				if err := p.SegmentCreate(1, size); err != nil {
					return err
				}
				if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
					return err
				}
				if p.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						if err := p.WriteNotify(1, 1, 0, data, 0, int64(i+1), 0); err != nil {
							return err
						}
						if err := p.WaitQueue(0, gaspi.Block); err != nil {
							return err
						}
					}
				}
				return p.Barrier(gaspi.GroupAll, gaspi.Block)
			})
			b.SetBytes(int64(size))
		})
	}
}

func BenchmarkSpMVHaloExchange(b *testing.B) {
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			gen := matrix.DefaultGraphene(64, 32, 5)
			benchJob(b, workers, func(p *gaspi.Proc) error {
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
				x := make([]float64, hi-lo)
				y := make([]float64, hi-lo)
				for i := range x {
					x[i] = float64(i)
				}
				for i := 0; i < b.N; i++ {
					if err := eng.SpMV(x, y, int64(i)); err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// storeTransport replicates by committing each frame straight into the
// neighbor's store, as the checkpoint stream's receiver does: the
// checkpoint benchmarks measure the library, not the stream.
type storeTransport struct{ cl *cluster.Cluster }

func (t storeTransport) Push(nb int, key string, blob []byte) error {
	return checkpoint.StoreReplica(t.cl, nb, key, blob)
}

func BenchmarkCheckpointWrite(b *testing.B) {
	for _, size := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("bytes-%d", size), func(b *testing.B) {
			cl := cluster.New(cluster.Config{
				Nodes: 2,
				Gaspi: gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
			}, func(ctx *cluster.ProcCtx) error { return nil })
			defer cl.Close()
			cl.Wait()
			// The retention rule keeps the store at three generations
			// whatever b.N is; ns/op includes its release of the fourth.
			lib := checkpoint.New(cl, 0, checkpoint.Config{}, storeTransport{cl})
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1})
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lib.Write("bench", 0, int64(i+1), payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			lib.WaitIdle()
		})
	}
}

func BenchmarkQLEigenvalues(b *testing.B) {
	for _, n := range []int{100, 1000, 3500} {
		b.Run(fmt.Sprintf("m-%d", n), func(b *testing.B) {
			d := make([]float64, n)
			e := make([]float64, n-1)
			for i := range d {
				d[i] = 2
			}
			for i := range e {
				e[i] = -1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lanczos.TridiagEigenvalues(d, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGrapheneRowGen(b *testing.B) {
	g := matrix.DefaultGraphene(1024, 1024, 3)
	var cols []int64
	var vals []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols, vals = g.Row(int64(i)%g.Dim(), cols[:0], vals[:0])
	}
	_ = cols
	_ = vals
}

func BenchmarkSerialSpMV(b *testing.B) {
	gen := matrix.DefaultGraphene(128, 128, 3)
	csr := matrix.Full(gen)
	x := make([]float64, gen.Dim())
	y := make([]float64, gen.Dim())
	for i := range x {
		x[i] = float64(i)
	}
	b.SetBytes(csr.NNZ() * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulVec(x, y)
	}
}

func BenchmarkNoticeEncodeDecode(b *testing.B) {
	lay := ft.Layout{Procs: 261, Spares: 4}
	n := &ft.Notice{
		Epoch:       3,
		Status:      make([]ft.ProcStatus, lay.Procs),
		ActPhys:     make([]ft.Rank, lay.Workers()),
		NewlyFailed: []ft.Rank{7, 19, 105},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := n.Encode()
		if _, err := ft.DecodeNotice(blob); err != nil {
			b.Fatal(err)
		}
	}
}

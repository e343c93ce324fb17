package experiment

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/trace"
)

func proberTestCfg() ft.Config {
	return ft.Config{ScanInterval: 5 * time.Millisecond, PingTimeout: 10 * time.Millisecond}
}

func proberGaspiCfg(n int) gaspi.Config {
	return gaspi.Config{
		Procs:   n,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
		Seed:    13,
	}
}

func TestProberDetectsFailure(t *testing.T) {
	for _, mode := range []string{"alltoall", "neighbor"} {
		t.Run(mode, func(t *testing.T) {
			cfg := proberTestCfg()
			var suspected atomic.Bool
			recs := []*trace.Recorder{trace.NewRecorder(), trace.NewRecorder(), trace.NewRecorder()}
			job := gaspi.Launch(proberGaspiCfg(4), func(p *gaspi.Proc) error {
				if p.Rank() == 3 {
					if err := p.SegmentCreate(9, 8); err != nil {
						return err
					}
					_, err := p.NotifyWaitsome(9, 0, 1, gaspi.Block) // until killed
					return err
				}
				var b *Prober
				if mode == "alltoall" {
					b = NewAllToAllProber(p, cfg, recs[p.Rank()])
				} else {
					b = NewNeighborProber(p, cfg, recs[p.Rank()])
				}
				b.Start()
				defer b.Stop()
				// In neighbor-ring mode only the predecessor in the ring
				// suspects the victim directly — propagating that view is
				// exactly the consensus problem the paper points out — so
				// the test requires at least one rank to suspect rank 3.
				deadline := time.Now().Add(10 * time.Second)
				for {
					st := b.Stats()
					for _, s := range st.Suspected {
						if s == 3 {
							suspected.Store(true)
							return nil
						}
					}
					if suspected.Load() {
						return nil // someone else identified the victim
					}
					if time.Now().After(deadline) {
						return fmt.Errorf("rank %d never suspected rank 3 (stats %+v)", p.Rank(), st)
					}
					time.Sleep(2 * time.Millisecond)
				}
			})
			defer job.Close()
			// Kill only once every prober has pinged at least once, so the
			// test exercises detection of a failure that strikes a running
			// prober rather than racing the probers' startup.
			warmup := time.Now().Add(10 * time.Second)
			for {
				ready := true
				for _, r := range recs {
					if r.Counter("prober.pings") == 0 {
						ready = false
					}
				}
				if ready {
					break
				}
				if time.Now().After(warmup) {
					t.Fatal("probers never started pinging")
				}
				time.Sleep(2 * time.Millisecond)
			}
			job.Kill(3, "prober target")
			res, ok := job.WaitTimeout(30 * time.Second)
			if !ok {
				t.Fatal("hung")
			}
			for _, r := range res {
				if r.Rank != 3 && r.Err != nil {
					t.Fatalf("rank %d: %v", r.Rank, r.Err)
				}
			}
			if !suspected.Load() {
				t.Fatal("failure never suspected")
			}
		})
	}
}

func TestProberFailureFreeOverheadCounted(t *testing.T) {
	cfg := proberTestCfg()
	recs := []*trace.Recorder{trace.NewRecorder(), trace.NewRecorder(), trace.NewRecorder()}
	job := gaspi.Launch(proberGaspiCfg(3), func(p *gaspi.Proc) error {
		b := NewAllToAllProber(p, cfg, recs[p.Rank()])
		b.Start()
		// Run until at least one full scan completed rather than sleeping a
		// fixed interval: on a loaded host a short sleep may not buy the
		// prober goroutine a single slice, making "Scans == 0" a false alarm.
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := b.Stats()
			if st.Scans > 0 && st.Pings > 0 {
				break
			}
			if time.Now().After(deadline) {
				b.Stop()
				return fmt.Errorf("prober idle: %+v", st)
			}
			time.Sleep(2 * time.Millisecond)
		}
		b.Stop()
		st := b.Stats()
		if st.Suspicions != 0 {
			return fmt.Errorf("false suspicion in failure-free run: %+v", st)
		}
		return nil
	})
	defer job.Close()
	res, ok := job.WaitTimeout(30 * time.Second)
	if !ok {
		t.Fatal("hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	if recs[1].Counter("prober.pings") == 0 {
		t.Fatal("ping counter not recorded")
	}
}

package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/matrix"
	"repro/internal/spmvm"
)

// The hot-path benchmarks measure the zero-copy data plane:
//
//   - BenchmarkSpMV: steady-state distributed spMVM iterations,
//     free-running on the parity-buffered halo (no inter-iteration
//     barrier). MUST report 0 allocs/op: the gather lands in the
//     registered send region, the remote part reads the halo in place,
//     completions are pooled and the hot waits poll before parking.
//   - BenchmarkCPStreamPush: checkpoint-stream flush throughput.

func benchSpMVJob(b *testing.B, threads, workers, shards int) {
	gen := matrix.DefaultGraphene(64, 32, 5)
	const warm = 64
	benchJobCfg(b, gaspi.Config{
		Procs:   workers,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
		// Dedicated data-plane run: poll hard enough that the hot waits
		// never park (and so never allocate) — a park costs one pulse
		// channel, which would show up in the 0 allocs/op gates. The
		// race-checked sharded gates run ~20x slower, hence the wide
		// budget (it is a poll cap, not a busy cost in the common case).
		SpinYields:   1 << 16,
		FabricShards: shards,
	}, func(p *gaspi.Proc) error {
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
		defer eng.Close()
		eng.Threads = threads
		x := make([]float64, hi-lo)
		y := make([]float64, hi-lo)
		for i := range x {
			x[i] = float64(i%17) * 0.25
		}
		// Warm up: grow freelists, pump heaps and caches to steady state.
		for i := 0; i < warm; i++ {
			if err := eng.SpMV(x, y, int64(i)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Logical() == 0 {
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := eng.SpMV(x, y, int64(warm+i)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Logical() == 0 {
			b.StopTimer()
		}
		return nil
	})
}

func BenchmarkSpMV(b *testing.B) {
	benchSpMVJob(b, 1, 2, 0)
}

// BenchmarkSpMVSharded is the sharded-data-plane allocation gate: six
// ranks striped over four pinned delivery shards, so shards serve
// multiple destinations (exercising the per-shard heaps, FIFO clamps and
// overflow machinery). MUST report 0 allocs/op — the CI bench-smoke job
// greps for it — proving sharding did not reintroduce boxing anywhere in
// the spMVM steady state.
func BenchmarkSpMVSharded(b *testing.B) {
	benchSpMVJob(b, 1, 6, 4)
}

// benchCollJob measures the collective hot path: every rank runs b.N
// operations, rank 0 times them. Collectives are self-synchronizing, so
// no extra coordination is needed beyond the warmup barrier.
func benchCollJob(b *testing.B, procs, shards int, body func(p *gaspi.Proc, n int) error) {
	const warm = 64
	benchJobCfg(b, gaspi.Config{
		Procs:   procs,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
		// See benchSpMVJob for the SpinYields sizing.
		SpinYields:   1 << 16,
		FabricShards: shards,
	}, func(p *gaspi.Proc) error {
		if err := body(p, warm); err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if err := body(p, b.N); err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	})
}

// BenchmarkCollBarrier / BenchmarkCollAllreduceF64 are the steady-state
// gates: both MUST report 0 allocs/op (the CI bench-smoke job greps for
// it) — rounds are one-sided notifications/writes into the group's
// registered collective segment, the accumulator is group-cached, and the
// hot waits poll before parking.

func benchBarrier(p *gaspi.Proc, n int) error {
	for i := 0; i < n; i++ {
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
	}
	return nil
}

func BenchmarkCollBarrier(b *testing.B) {
	benchCollJob(b, 4, 0, benchBarrier)
}

func benchAllreduce(p *gaspi.Proc, n int) error {
	in := []float64{1.5, -2.5, float64(p.Rank()), 4}
	out := make([]float64, len(in))
	for i := 0; i < n; i++ {
		if err := p.AllreduceF64Into(gaspi.GroupAll, in, out, gaspi.OpSum, gaspi.Block); err != nil {
			return err
		}
	}
	return nil
}

func BenchmarkCollAllreduceF64(b *testing.B) {
	benchCollJob(b, 4, 0, benchAllreduce)
}

// BenchmarkCollAllreduceF64Sharded runs the binomial allreduce over an
// eight-rank group striped onto four pinned delivery shards (two
// destinations per shard). MUST report 0 allocs/op, like the unsharded
// gate: the collective fast path's zero-allocation steady state has to
// hold per shard, not just in the one-pump-per-rank layout.
func BenchmarkCollAllreduceF64Sharded(b *testing.B) {
	benchCollJob(b, 8, 4, benchAllreduce)
}

// BenchmarkJobLaunch and BenchmarkGroupRecommit gate what the
// communication layer allocates whether or not a job ever uses it: B/op of
// launching and closing an 8-process job (fabric rings sized from the
// process count, GroupAll's collective segment; CI ceiling 1 MB), and B/member of one delete + create + commit of a 4-member
// group, the allocation every survivor pays on the recovery path (CI
// ceiling 4 KiB: a 2 KiB collective segment and the group's bookkeeping).

func BenchmarkJobLaunch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchJobCfg(b, gaspi.Config{
			Procs:   8,
			Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
		}, func(*gaspi.Proc) error { return nil })
	}
}

func BenchmarkGroupRecommit(b *testing.B) {
	const members = 4
	// Two ids in turn, as a recovery moves to the next group id: a member
	// that is a commit ahead posts its handshake rounds under an id the
	// slower ones have already deleted and purged, never under the one they
	// are still committing.
	commit := func(p *gaspi.Proc, gid gaspi.GroupID) error {
		if err := p.GroupCreate(gid); err != nil {
			return err
		}
		for r := gaspi.Rank(0); r < members; r++ {
			if err := p.GroupAdd(gid, r); err != nil {
				return err
			}
		}
		return p.GroupCommit(gid, gaspi.Block)
	}
	benchJobCfg(b, gaspi.Config{
		Procs:   members,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
	}, func(p *gaspi.Proc) error {
		cur, next := gaspi.GroupID(1), gaspi.GroupID(2)
		if err := commit(p, cur); err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		var before runtime.MemStats
		if p.Rank() == 0 {
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			p.GroupDelete(cur)
			if err := commit(p, next); err != nil {
				return err
			}
			cur, next = next, cur
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/members, "B/member")
		}
		return nil
	})
}

// BenchmarkStoreResident gates what the checkpoint store keeps resident
// however long a job runs: the bytes of one family on the fullest of its two
// nodes (MB/family) after 150 generations — and b.N more, whose write + flush
// is the ns/op — of a 256 KiB state that changes every 64 KiB every epoch,
// through the async writer (cp_stream's configuration).
// The retention rule holds three generations, 0.79 MB; a store that never
// releases holds 39 MB at 150 and grows with b.N (CI ceiling 1 MB).
func BenchmarkStoreResident(b *testing.B) {
	const size = 256 << 10
	cl := cluster.New(cluster.Config{
		Nodes: 2,
		Gaspi: gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
	}, func(ctx *cluster.ProcCtx) error { return nil })
	defer cl.Close()
	cl.Wait()
	lib := checkpoint.New(cl, 0, checkpoint.Config{CheckpointMode: checkpoint.Async}, storeTransport{cl})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	payload := make([]byte, size)
	write := func(v int64) {
		for off := 0; off < size; off += 64 << 10 {
			payload[off] = byte(v)
		}
		if err := lib.Write("bench", 0, v, payload); err != nil {
			b.Fatal(err)
		}
	}
	for v := int64(1); v <= 150; v++ {
		write(v)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(int64(151 + i))
	}
	lib.WaitIdle()
	b.StopTimer()
	if err := lib.Err(); err != nil {
		b.Fatal(err)
	}
	resident := 0
	for n := 0; n < 2; n++ {
		held := 0
		for _, k := range cl.Node(n).Keys() {
			if sz, ok := cl.Node(n).Size(k); ok && strings.HasPrefix(k, "cp/bench/0/") {
				held += sz
			}
		}
		resident = max(resident, held)
	}
	b.ReportMetric(float64(resident)/1e6, "MB/family")
}

func BenchmarkCPStreamPush(b *testing.B) {
	for _, size := range []int{64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("bytes-%d", size), func(b *testing.B) {
			blob := make([]byte, size)
			b.SetBytes(int64(size))
			job := gaspi.Launch(gaspi.Config{
				Procs:   2,
				Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
			}, func(p *gaspi.Proc) error {
				s, err := ft.NewCPStream(p, []gaspi.Rank{p.Rank()}, size+4096, 64<<10, 50*time.Millisecond)
				if err != nil {
					return err
				}
				if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
					return err
				}
				if p.Rank() == 0 {
					defer s.Stop()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := s.Push(1, "cp/bench/0/v1", blob); err != nil {
							return err
						}
					}
					b.StopTimer()
					if err := p.Notify(1, ft.SegCP, ft.NotifCPAck, 1, ft.CPAckQueue); err != nil {
						return err
					}
					return p.WaitQueue(ft.CPAckQueue, gaspi.Block)
				}
				go s.Serve(func(string, []byte) error { return nil })
				if _, err := p.NotifyWaitsome(ft.SegCP, ft.NotifCPAck, 1, gaspi.Block); err != nil {
					return err
				}
				s.Stop()
				return nil
			})
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
		})
	}
}

// BenchmarkCPStreamEndpoint gates what a checkpoint-stream endpoint costs
// before its first frame: B/op of creating one with the default 1 MiB frame
// capacity and deleting its segment again. Every worker and every rescue
// creates one; the segment is backed only where frames write it, so the
// endpoint itself is a few hundred bytes (CI ceiling 64 KiB; a segment
// allocated at its declared size reads 1 MiB).
func BenchmarkCPStreamEndpoint(b *testing.B) {
	benchJobCfg(b, gaspi.Config{
		Procs:   1,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
	}, func(p *gaspi.Proc) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ft.NewCPStream(p, []gaspi.Rank{p.Rank()}, 0, 0, 0); err != nil {
				return err
			}
			if err := p.SegmentDelete(ft.SegCP); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
}

// BenchmarkRescueLoad is what an unshadowed rescue computes for the rank it
// adopts, beside its recovery, in the loader's order: decode the plan
// checkpoint, lay the halo out from it (NewPendingSplit), generate the row
// block straight into its parts and cut it (Cut(Generate(...))) — for the
// kill workloads' block, 8192 rows of the 128x128-cell graphene sheet,
// logical 1 of 4. CI gates its B/op and allocs/op.
func BenchmarkRescueLoad(b *testing.B) {
	const workers, logical = 4, 1
	gen := matrix.DefaultGraphene(128, 128, 7)
	lo, hi := matrix.BlockRange(gen.Dim(), workers, logical)
	var blob []byte
	benchJobCfg(b, gaspi.Config{
		Procs:   workers,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
	}, func(p *gaspi.Proc) error {
		c := &spmvm.Direct{P: p, Base: 0, Workers: workers, Group: gaspi.GroupAll}
		l, h := matrix.BlockRange(gen.Dim(), workers, c.Logical())
		plan, err := spmvm.Preprocess(c, spmvm.Generate(gen, l, h))
		if err == nil && c.Logical() == logical {
			blob = plan.Encode()
		}
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := spmvm.DecodePlan(blob)
		if err != nil {
			b.Fatal(err)
		}
		if err := spmvm.NewPendingSplit(plan).Cut(spmvm.Generate(gen, lo, hi)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(b.N), "ms/op")
}

package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspi"
	"repro/internal/matrix"
	"repro/internal/spmvm"
)

// ScaleConfig parameterizes the ranks × cores × message-size scaling
// study of the sharded fabric data plane. Every point is measured twice:
// once with the sharded layout (Shards = min(GOMAXPROCS, ranks), the
// production default) and once with Shards = ranks, which reproduces the
// historical one-pump-goroutine-per-destination layout and serves as the
// baseline arm. The cores axis is swept by re-pinning GOMAXPROCS, so it
// only measures real parallelism on hosts with that many CPUs — the
// result records HostCPUs so a flat cores axis on a small host is
// attributable (see EXPERIMENTS.md). The axes are fixed — 4 to 256 ranks
// (1024 with Full), 1, 2 and 4 cores, messages of 256 B, 4 KiB and 64 KiB —
// and so are the sizes below; the fields set the measurement budgets.
type ScaleConfig struct {
	// SpMVIters is the measured iteration budget at the smallest rank
	// count; larger jobs run proportionally fewer (same total work).
	SpMVIters int
	// CollOps is the measured allreduce operation count per point.
	CollOps int
	// StreamMsgs is the number of messages per sender in the streaming
	// sweep.
	StreamMsgs int
	// Full widens the sweep to the trajectory arms: 1024 simulated ranks
	// and a multi-million-row matrix.
	Full bool
}

// The sweep's fixed sizes (its axes are set in RunScale and ranks).
const (
	// scaleRowsPerRank sizes the weak-scaling spMVM matrix: the global
	// dimension of a point is ranks·scaleRowsPerRank (1024 ranks × 2048
	// rows = a 2M-row matrix).
	scaleRowsPerRank = 2048
	// scaleVecLen is the allreduce vector length, the size of the
	// benchmark's allreduce4 probe.
	scaleVecLen = 4
	// scaleSeed seeds the fabric jitter streams.
	scaleSeed = 11
)

// WithDefaults fills the sweep used by ftlanczos -mode scale.
func (c ScaleConfig) WithDefaults() ScaleConfig {
	if c.SpMVIters <= 0 {
		c.SpMVIters = 400
	}
	if c.CollOps <= 0 {
		c.CollOps = 300
	}
	if c.StreamMsgs <= 0 {
		c.StreamMsgs = 2000
	}
	return c
}

// ranks returns the simulated job sizes swept.
func (c ScaleConfig) ranks() []int {
	if c.Full {
		return []int{4, 16, 64, 256, 1024}
	}
	return []int{4, 16, 64, 256}
}

// SpMVScaleRow is one (ranks, cores) point of the weak-scaling spMVM
// sweep: iterations/sec with the sharded data plane vs the per-rank pump
// baseline layout.
type SpMVScaleRow struct {
	Ranks            int     `json:"ranks"`
	Cores            int     `json:"cores"`
	Shards           int     `json:"shards"`
	Rows             int64   `json:"rows"`
	Iters            int     `json:"iters"`
	ShardedItersPerS float64 `json:"sharded_iters_per_sec"`
	PerRankItersPerS float64 `json:"per_rank_pump_iters_per_sec"`
	Speedup          float64 `json:"speedup"`
}

// CollScaleRow is one (ranks, cores) point of the allreduce sweep.
type CollScaleRow struct {
	Ranks          int     `json:"ranks"`
	Cores          int     `json:"cores"`
	Shards         int     `json:"shards"`
	VecLen         int     `json:"vec_len"`
	Ops            int     `json:"ops"`
	ShardedOpsPerS float64 `json:"sharded_ops_per_sec"`
	PerRankOpsPerS float64 `json:"per_rank_pump_ops_per_sec"`
	Speedup        float64 `json:"speedup"`
}

// StreamScaleRow is one (ranks, cores, msg-size) point of the pairwise
// one-sided streaming sweep: ranks/2 senders each stream StreamMsgs
// payloads to a partner in the other half, exercising the intake rings
// and doorbell batching directly; the rate is the aggregate across pairs.
type StreamScaleRow struct {
	Ranks         int     `json:"ranks"`
	Cores         int     `json:"cores"`
	Shards        int     `json:"shards"`
	MsgBytes      int     `json:"msg_bytes"`
	MsgsPerPair   int     `json:"msgs_per_pair"`
	ShardedMBperS float64 `json:"sharded_mb_per_sec"`
	PerRankMBperS float64 `json:"per_rank_pump_mb_per_sec"`
	Speedup       float64 `json:"speedup"`
}

// ScaleResult is the payload of BENCH_scale.json.
type ScaleResult struct {
	HostCPUs  int              `json:"host_cpus"`
	Ranks     []int            `json:"ranks"`
	Cores     []int            `json:"cores"`
	MsgSizes  []int            `json:"msg_sizes"`
	SpMVM     []SpMVScaleRow   `json:"spmvm"`
	Allreduce []CollScaleRow   `json:"allreduce"`
	Stream    []StreamScaleRow `json:"stream"`
}

func scaleGaspiCfg(ranks, shards int) gaspi.Config {
	return gaspi.Config{
		Procs:        ranks,
		Latency:      fabric.LatencyModel{Base: 2 * time.Microsecond, PerByteNs: 0.25},
		Seed:         scaleSeed,
		SpinYields:   64,
		FabricShards: shards,
	}
}

// scaleIters shrinks the measured iteration budget as jobs grow, keeping
// the total simulated work per point roughly constant.
func scaleIters(base, ranks, atRanks int) int {
	it := base * atRanks / ranks
	if it < 20 {
		it = 20
	}
	return it
}

// RunScale executes the sweep. GOMAXPROCS is re-pinned per cores arm and
// restored before returning.
func RunScale(c ScaleConfig, progress func(string)) (*ScaleResult, error) {
	c = c.WithDefaults()
	if progress == nil {
		progress = func(string) {}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	res := &ScaleResult{
		HostCPUs: runtime.NumCPU(),
		Ranks:    c.ranks(),
		Cores:    []int{1, 2, 4},
		MsgSizes: []int{256, 4 << 10, 64 << 10},
	}
	for _, cores := range res.Cores {
		runtime.GOMAXPROCS(cores)
		for _, ranks := range res.Ranks {
			shards := cores
			if shards > ranks {
				shards = ranks
			}

			iters := scaleIters(c.SpMVIters, ranks, res.Ranks[0])
			rows := int64(ranks) * scaleRowsPerRank
			progress(fmt.Sprintf("spmvm ranks=%d cores=%d rows=%d iters=%d", ranks, cores, rows, iters))
			sharded, err := runScaleSpMV(c, ranks, 0, iters)
			if err != nil {
				return nil, fmt.Errorf("spmvm sharded ranks=%d cores=%d: %w", ranks, cores, err)
			}
			perRank, err := runScaleSpMV(c, ranks, ranks, iters)
			if err != nil {
				return nil, fmt.Errorf("spmvm per-rank ranks=%d cores=%d: %w", ranks, cores, err)
			}
			res.SpMVM = append(res.SpMVM, SpMVScaleRow{
				Ranks: ranks, Cores: cores, Shards: shards, Rows: rows, Iters: iters,
				ShardedItersPerS: rate(iters, sharded),
				PerRankItersPerS: rate(iters, perRank),
				Speedup:          ratio(perRank, sharded),
			})

			progress(fmt.Sprintf("allreduce ranks=%d cores=%d", ranks, cores))
			shardedC, err := runScaleAllreduce(c, ranks, 0)
			if err != nil {
				return nil, fmt.Errorf("allreduce sharded ranks=%d cores=%d: %w", ranks, cores, err)
			}
			perRankC, err := runScaleAllreduce(c, ranks, ranks)
			if err != nil {
				return nil, fmt.Errorf("allreduce per-rank ranks=%d cores=%d: %w", ranks, cores, err)
			}
			res.Allreduce = append(res.Allreduce, CollScaleRow{
				Ranks: ranks, Cores: cores, Shards: shards, VecLen: scaleVecLen, Ops: c.CollOps,
				ShardedOpsPerS: rate(c.CollOps, shardedC),
				PerRankOpsPerS: rate(c.CollOps, perRankC),
				Speedup:        ratio(perRankC, shardedC),
			})

			for _, size := range res.MsgSizes {
				progress(fmt.Sprintf("stream ranks=%d cores=%d size=%d", ranks, cores, size))
				shardedS, err := runScaleStream(c, ranks, 0, size)
				if err != nil {
					return nil, fmt.Errorf("stream sharded ranks=%d size=%d: %w", ranks, size, err)
				}
				perRankS, err := runScaleStream(c, ranks, ranks, size)
				if err != nil {
					return nil, fmt.Errorf("stream per-rank ranks=%d size=%d: %w", ranks, size, err)
				}
				bytes := float64(ranks/2) * float64(c.StreamMsgs) * float64(size)
				res.Stream = append(res.Stream, StreamScaleRow{
					Ranks: ranks, Cores: cores, Shards: shards, MsgBytes: size, MsgsPerPair: c.StreamMsgs,
					ShardedMBperS: bytes / (1 << 20) / shardedS.Seconds(),
					PerRankMBperS: bytes / (1 << 20) / perRankS.Seconds(),
					Speedup:       ratio(perRankS, shardedS),
				})
			}
		}
	}
	return res, nil
}

func rate(n int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(n) / wall.Seconds()
}

func ratio(base, opt time.Duration) float64 {
	if opt <= 0 {
		return 0
	}
	return base.Seconds() / opt.Seconds()
}

// runScaleSpMV measures iters steady-state weak-scaling spMVM iterations
// (Laplacian1D, scaleRowsPerRank rows per rank) and returns rank 0's wall
// time over the measured window.
func runScaleSpMV(c ScaleConfig, ranks, shards, iters int) (time.Duration, error) {
	const warm = 10
	gen := matrix.Laplacian1D{N: int64(ranks) * scaleRowsPerRank}
	var mu sync.Mutex
	var wall time.Duration
	job := gaspi.Launch(scaleGaspiCfg(ranks, shards), func(p *gaspi.Proc) error {
		comm := &spmvm.Direct{P: p, Base: 0, Workers: ranks, Group: gaspi.GroupAll}
		lo, hi := matrix.BlockRange(gen.Dim(), ranks, comm.Logical())
		blk := spmvm.Generate(gen, lo, hi)
		plan, err := spmvm.Preprocess(comm, blk)
		if err != nil {
			return err
		}
		eng, err := spmvm.NewEngine(comm, plan, blk, 7)
		if err != nil {
			return err
		}
		defer eng.Close()
		x := make([]float64, hi-lo)
		y := make([]float64, hi-lo)
		for i := range x {
			x[i] = float64(i%13) * 0.5
		}
		for i := 0; i < warm; i++ {
			if err := eng.SpMV(x, y, int64(i)); err != nil {
				return err
			}
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		var t0 time.Time
		if comm.Logical() == 0 {
			t0 = time.Now()
		}
		for i := 0; i < iters; i++ {
			if err := eng.SpMV(x, y, int64(warm+i)); err != nil {
				return err
			}
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if comm.Logical() == 0 {
			mu.Lock()
			wall = time.Since(t0)
			mu.Unlock()
		}
		return nil
	})
	defer job.Close()
	if err := waitScaleJob(job); err != nil {
		return 0, err
	}
	return wall, nil
}

// runScaleAllreduce measures CollOps fast-path AllreduceF64Into
// operations over ranks and returns rank 0's wall time.
func runScaleAllreduce(c ScaleConfig, ranks, shards int) (time.Duration, error) {
	const warm = 10
	var mu sync.Mutex
	var wall time.Duration
	job := gaspi.Launch(scaleGaspiCfg(ranks, shards), func(p *gaspi.Proc) error {
		in := make([]float64, scaleVecLen)
		out := make([]float64, scaleVecLen)
		for i := range in {
			in[i] = float64(p.Rank()) + float64(i)*0.25
		}
		op := func() error {
			return p.AllreduceF64Into(gaspi.GroupAll, in, out, gaspi.OpSum, gaspi.Block)
		}
		for i := 0; i < warm; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		var t0 time.Time
		if p.Rank() == 0 {
			t0 = time.Now()
		}
		for i := 0; i < c.CollOps; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if p.Rank() == 0 {
			mu.Lock()
			wall = time.Since(t0)
			mu.Unlock()
		}
		return nil
	})
	defer job.Close()
	if err := waitScaleJob(job); err != nil {
		return 0, err
	}
	return wall, nil
}

// runScaleStream measures the pairwise one-sided streaming point: each
// rank in the lower half posts StreamMsgs zero-copy writes of size bytes
// to its partner in the upper half, then flushes the queue; the wall time
// of the slowest pair is returned.
func runScaleStream(c ScaleConfig, ranks, shards, size int) (time.Duration, error) {
	const seg = gaspi.SegmentID(1)
	var mu sync.Mutex
	var wall time.Duration
	job := gaspi.Launch(scaleGaspiCfg(ranks, shards), func(p *gaspi.Proc) error {
		if err := p.SegmentCreate(seg, size); err != nil {
			return err
		}
		// One-sided writes may only target segments the remote side has
		// registered: barrier between creation and the first post (the
		// standard GASPI segment-setup idiom).
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() >= gaspi.Rank(ranks/2) {
			// Receivers are passive: one-sided writes land in the segment
			// without the target's participation. The closing barrier
			// below is the paper-idiomatic completion point.
			return p.Barrier(gaspi.GroupAll, gaspi.Block)
		}
		partner := p.Rank() + gaspi.Rank(ranks/2)
		buf, err := p.SegmentData(seg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < c.StreamMsgs; i++ {
			if err := p.WriteFrom(partner, seg, 0, buf[:size], 0); err != nil {
				return err
			}
			// Flush periodically: the queue depth bounds outstanding
			// posts exactly like a real NIC's send queue.
			if (i+1)%64 == 0 {
				if err := p.WaitQueue(0, gaspi.Block); err != nil {
					return err
				}
			}
		}
		if err := p.WaitQueue(0, gaspi.Block); err != nil {
			return err
		}
		el := time.Since(t0)
		mu.Lock()
		if el > wall {
			wall = el
		}
		mu.Unlock()
		return p.Barrier(gaspi.GroupAll, gaspi.Block)
	})
	defer job.Close()
	if err := waitScaleJob(job); err != nil {
		return 0, err
	}
	return wall, nil
}

func waitScaleJob(job *gaspi.Job) error {
	res, ok := job.WaitTimeout(10 * time.Minute)
	if !ok {
		return fmt.Errorf("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("rank %d: %w", r.Rank, r.Err)
		}
	}
	return nil
}

// Render formats the result as an aligned table.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scaling sweep (host CPUs: %d)\n", r.HostCPUs)
	b.WriteString("spMVM weak scaling (iters/sec, sharded vs per-rank pumps)\n")
	fmt.Fprintf(&b, "%8s %6s %7s %10s %12s %12s %8s\n", "ranks", "cores", "shards", "rows", "sharded", "per-rank", "speedup")
	for _, row := range r.SpMVM {
		fmt.Fprintf(&b, "%8d %6d %7d %10d %12.0f %12.0f %7.2fx\n",
			row.Ranks, row.Cores, row.Shards, row.Rows, row.ShardedItersPerS, row.PerRankItersPerS, row.Speedup)
	}
	b.WriteString("allreduce (ops/sec)\n")
	fmt.Fprintf(&b, "%8s %6s %7s %12s %12s %8s\n", "ranks", "cores", "shards", "sharded", "per-rank", "speedup")
	for _, row := range r.Allreduce {
		fmt.Fprintf(&b, "%8d %6d %7d %12.0f %12.0f %7.2fx\n",
			row.Ranks, row.Cores, row.Shards, row.ShardedOpsPerS, row.PerRankOpsPerS, row.Speedup)
	}
	b.WriteString("pairwise streaming (MB/s aggregate)\n")
	fmt.Fprintf(&b, "%8s %6s %9s %12s %12s %8s\n", "ranks", "cores", "msgbytes", "sharded", "per-rank", "speedup")
	for _, row := range r.Stream {
		fmt.Fprintf(&b, "%8d %6d %9d %12.1f %12.1f %7.2fx\n",
			row.Ranks, row.Cores, row.MsgBytes, row.ShardedMBperS, row.PerRankMBperS, row.Speedup)
	}
	return b.String()
}

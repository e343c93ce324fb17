package experiment

// The recovery trajectory: where bench-hotpath tracks the healthy-state
// data plane, this file measures the cost of surviving a failure — the
// paper's actual headline. Three arms:
//
//  1. Checkpoint visible cost vs dirty fraction: the synchronous commit
//     discipline's application-visible Write time, legacy full blobs vs
//     the incremental delta engine, at 10%/50%/100% of the payload dirty
//     per interval. The delta engine's win scales with the clean
//     fraction; at 100% dirty it honestly pays a small diffing premium.
//  2. Restore bandwidth: one checkpoint generation replicated across
//     several nodes plus the PFS, restored with the legacy sequential
//     tier walk vs the striped multi-source fetcher.
//  3. End-to-end time-to-recover: the scenario engine's mid-iteration
//     kill -9 with the delta engine enabled, decomposed into
//     detect → ack → rebuild → restore from the trace counters, with
//     detection split into pushed (a survivor's nudge started the scan)
//     and interval-bound (the scan waited for ScanInterval).
//
// cmd/bench-recovery drives all three and emits BENCH_recovery.json.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gaspi"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// RecoveryBenchConfig parameterizes the recovery trajectory run.
type RecoveryBenchConfig struct {
	// PayloadBytes is the checkpoint payload size of the visible-cost arm
	// (default 4 MiB).
	PayloadBytes int
	// ChunkBytes is the delta/stripe granularity (default 64 KiB).
	ChunkBytes int
	// Versions is the number of measured checkpoint epochs per arm
	// (default 10).
	Versions int
	// FullEvery is the delta engine's full-base cadence (default 8).
	FullEvery int
	// DirtyFracs are the measured dirty fractions (default 0.1, 0.5, 1).
	DirtyFracs []float64
	// RestoreBytes is the blob size of the restore-bandwidth arm
	// (default 8 MiB).
	RestoreBytes int
	// Replicas is the number of node replicas seeded for the striped
	// restore, in addition to the PFS copy (default 3).
	Replicas int
	// Seed drives payload content and dirty-chunk selection.
	Seed int64
}

// WithDefaults fills the zero fields.
func (c RecoveryBenchConfig) WithDefaults() RecoveryBenchConfig {
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 4 << 20
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 64 << 10
	}
	if c.Versions <= 0 {
		c.Versions = 10
	}
	if c.FullEvery <= 0 {
		c.FullEvery = 8
	}
	if len(c.DirtyFracs) == 0 {
		c.DirtyFracs = []float64{0.1, 0.5, 1.0}
	}
	if c.RestoreBytes <= 0 {
		c.RestoreBytes = 8 << 20
	}
	if c.Replicas < 2 {
		// The restore seeding needs the writer (node 1) plus its ring
		// neighbor; fewer than two node replicas cannot exist.
		c.Replicas = 2
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
	return c
}

// benchStorage is the storage cost model of the trajectory: per-byte
// costs chosen so storage time dominates encode CPU, as on a real node
// (node-local store ~250 MB/s, inter-node link half that cost per byte,
// PFS slower still and only 2-wide).
func benchStorage() cluster.StorageModel {
	return cluster.StorageModel{
		LocalPerByte: 4 * time.Nanosecond,
		XferPerByte:  2 * time.Nanosecond,
		PFSPerByte:   8 * time.Nanosecond,
		PFSWidth:     2,
	}
}

// idleCluster builds an n-node cluster whose ranks exit immediately: the
// storage arms exercise the checkpoint library directly, without an
// application.
func idleCluster(n int, seed int64) (*cluster.Cluster, error) {
	cl := cluster.New(cluster.Config{
		Nodes:   n,
		Gaspi:   gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}, Seed: seed},
		Storage: benchStorage(),
	}, func(*cluster.ProcCtx) error { return nil })
	if _, ok := cl.WaitTimeout(time.Minute); !ok {
		cl.Close()
		return nil, fmt.Errorf("recovery bench: idle cluster hung")
	}
	return cl, nil
}

// CheckpointCostRow is one dirty fraction's visible-cost comparison.
type CheckpointCostRow struct {
	DirtyFrac float64 `json:"dirty_frac"`
	// FullMs/DeltaMs: amortized application-visible Write time per epoch
	// (mean over the measured epochs — for the delta arm that includes
	// its periodic full-base generation, so the speedup is the honest
	// amortized one, not a best-delta-epoch number).
	FullMs  float64 `json:"full_visible_ms"`
	DeltaMs float64 `json:"delta_visible_ms"`
	Speedup float64 `json:"speedup"`
	// FullReplBytes/DeltaReplBytes: bytes landed on the neighbor node per
	// arm (the replication traffic the delta engine shrinks).
	FullReplBytes  int64 `json:"full_replicated_bytes"`
	DeltaReplBytes int64 `json:"delta_replicated_bytes"`
	// DeltaFrames/FullFrames: generation mix of the delta arm.
	FullFrames  int64 `json:"full_frames"`
	DeltaFrames int64 `json:"delta_frames"`
}

// dirtyChunks mutates frac of payload's chunks (one byte per selected
// chunk — chunk granularity is what the diff sees).
func dirtyChunks(rng *rand.Rand, payload []byte, chunk int, frac float64) {
	n := (len(payload) + chunk - 1) / chunk
	want := int(frac*float64(n) + 0.999999)
	if want > n {
		want = n
	}
	for _, idx := range rng.Perm(n)[:want] {
		payload[idx*chunk] ^= byte(1 + rng.Intn(255))
	}
}

// neighborBytes sums the checkpoint data objects landed on a node.
func neighborBytes(cl *cluster.Cluster, node int, name string) int64 {
	var total int64
	for _, k := range cl.Node(node).Keys() {
		if strings.HasPrefix(k, "cp/"+name+"/") && !strings.HasSuffix(k, "/ok") {
			if n, ok := cl.Node(node).Size(k); ok {
				total += int64(n)
			}
		}
	}
	return total
}

// runCheckpointArm measures one configuration's mean visible Write cost.
func runCheckpointArm(c RecoveryBenchConfig, name string, fullEvery int, frac float64) (visible time.Duration, repl int64, stats checkpoint.DeltaStats, err error) {
	cl, err := idleCluster(3, c.Seed)
	if err != nil {
		return 0, 0, stats, err
	}
	defer cl.Close()
	lib := checkpoint.New(cl, 0, checkpoint.Config{
		Name:       name,
		ChunkBytes: c.ChunkBytes,
		FullEvery:  fullEvery,
	})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	rng := rand.New(rand.NewSource(c.Seed))
	payload := make([]byte, c.PayloadBytes)
	rng.Read(payload)
	// Epoch 1 is the chain's full base in both arms; measure from epoch 2.
	if err := lib.Write(name, 0, 1, payload); err != nil {
		return 0, 0, stats, err
	}
	samples := make([]time.Duration, 0, c.Versions)
	for v := 2; v <= c.Versions+1; v++ {
		dirtyChunks(rng, payload, c.ChunkBytes, frac)
		t0 := time.Now()
		if err := lib.Write(name, 0, int64(v), payload); err != nil {
			return 0, 0, stats, err
		}
		samples = append(samples, time.Since(t0))
	}
	lib.WaitIdle()
	if err := lib.Err(); err != nil {
		return 0, 0, stats, fmt.Errorf("recovery bench: background replication: %w", err)
	}
	// Amortized mean over the epochs — the delta arm's cadence mixes
	// cheap delta epochs with its periodic full base, and both belong in
	// the per-epoch cost. Robustness against shared-CPU steal comes from
	// the caller taking the best repetition of this mean, not from
	// dropping expensive epochs here.
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return total / time.Duration(len(samples)), neighborBytes(cl, 1, name), lib.DeltaStats(), nil
}

// RunCheckpointCost measures the visible-cost rows. Each arm repeats a
// few times with the best repetition kept — a CPU-steal burst on a
// shared host can swallow a whole arm's window, and the replication
// byte counts (the deterministic part) are identical across repetitions.
func RunCheckpointCost(c RecoveryBenchConfig) ([]CheckpointCostRow, error) {
	c = c.WithDefaults()
	const reps = 3
	arm := func(name string, fullEvery int, frac float64) (time.Duration, int64, checkpoint.DeltaStats, error) {
		var bestVis time.Duration
		var bestRepl int64
		var bestStats checkpoint.DeltaStats
		for r := 0; r < reps; r++ {
			vis, repl, ds, err := runCheckpointArm(c, name, fullEvery, frac)
			if err != nil {
				return 0, 0, ds, err
			}
			if r == 0 || vis < bestVis {
				bestVis, bestRepl, bestStats = vis, repl, ds
			}
		}
		return bestVis, bestRepl, bestStats, nil
	}
	var rows []CheckpointCostRow
	for _, frac := range c.DirtyFracs {
		fullVis, fullRepl, _, err := arm("full", 0, frac)
		if err != nil {
			return nil, err
		}
		deltaVis, deltaRepl, ds, err := arm("delta", c.FullEvery, frac)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CheckpointCostRow{
			DirtyFrac:      frac,
			FullMs:         float64(fullVis.Nanoseconds()) / 1e6,
			DeltaMs:        float64(deltaVis.Nanoseconds()) / 1e6,
			Speedup:        float64(fullVis) / float64(deltaVis),
			FullReplBytes:  fullRepl,
			DeltaReplBytes: deltaRepl,
			FullFrames:     ds.FullFrames,
			DeltaFrames:    ds.DeltaFrames,
		})
	}
	return rows, nil
}

// RestoreBenchRow compares the sequential tier walk against the striped
// multi-source fetcher on one replicated checkpoint generation.
type RestoreBenchRow struct {
	BlobBytes int `json:"blob_bytes"`
	// Sources is node replicas + 1 PFS copy.
	Sources        int     `json:"sources"`
	SequentialMs   float64 `json:"sequential_ms"`
	StripedMs      float64 `json:"striped_ms"`
	SequentialMBpS float64 `json:"sequential_mb_per_sec"`
	StripedMBpS    float64 `json:"striped_mb_per_sec"`
	Speedup        float64 `json:"speedup"`
}

// RunRestoreBench seeds one generation across c.Replicas nodes plus the
// PFS and restores it both ways from a node holding no local copy.
func RunRestoreBench(c RecoveryBenchConfig) (RestoreBenchRow, error) {
	c = c.WithDefaults()
	row := RestoreBenchRow{BlobBytes: c.RestoreBytes, Sources: c.Replicas + 1}
	cl, err := idleCluster(c.Replicas+1, c.Seed)
	if err != nil {
		return row, err
	}
	defer cl.Close()
	// Write the generation once on node 1 (its copier replicates to node
	// 2), then widen the replica set by hand to every remaining node and
	// the PFS — all byte-identical, all sealed under the same generation
	// tag, exactly what a PFSEvery-configured run leaves behind.
	const name = "restore"
	rng := rand.New(rand.NewSource(c.Seed + 1))
	payload := make([]byte, c.RestoreBytes)
	rng.Read(payload)
	writer := checkpoint.New(cl, 1, checkpoint.Config{
		Name: name, ChunkBytes: c.ChunkBytes, FullEvery: c.FullEvery,
	})
	writer.SetWorkerNodes([]int{1, 2})
	if err := writer.Write(name, 0, 1, payload); err != nil {
		writer.Stop()
		return row, err
	}
	writer.WaitIdle()
	writer.Stop()
	key := checkpoint.Key(name, 0, 1)
	blob, err := cl.Node(1).Get(key, cl.Storage())
	if err != nil {
		return row, err
	}
	for node := 3; node <= c.Replicas; node++ {
		if err := checkpoint.StoreReplica(cl, node, key, blob); err != nil {
			return row, err
		}
	}
	if err := checkpoint.StorePFSReplica(cl, key, blob); err != nil {
		return row, err
	}

	restore := func(sequential bool) (time.Duration, error) {
		lib := checkpoint.New(cl, 0, checkpoint.Config{
			Name: name, ChunkBytes: c.ChunkBytes,
			FullEvery: c.FullEvery, SequentialRestore: sequential,
		})
		defer lib.Stop()
		nodes := make([]int, c.Replicas+1)
		for i := range nodes {
			nodes[i] = i
		}
		lib.SetWorkerNodes(nodes)
		// Best of a few repetitions: the modeled read time is
		// deterministic, so the minimum is the steal-free estimate on a
		// shared-CPU host.
		const reps = 5
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			got, _, err := lib.FetchFrom(name, 0, 1)
			wall := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(got, payload) {
				return 0, fmt.Errorf("recovery bench: restored payload mismatch")
			}
			if r == 0 || wall < best {
				best = wall
			}
		}
		return best, nil
	}
	seq, err := restore(true)
	if err != nil {
		return row, fmt.Errorf("sequential restore: %w", err)
	}
	striped, err := restore(false)
	if err != nil {
		return row, fmt.Errorf("striped restore: %w", err)
	}
	mb := float64(c.RestoreBytes) / (1 << 20)
	row.SequentialMs = float64(seq.Nanoseconds()) / 1e6
	row.StripedMs = float64(striped.Nanoseconds()) / 1e6
	row.SequentialMBpS = mb / seq.Seconds()
	row.StripedMBpS = mb / striped.Seconds()
	row.Speedup = seq.Seconds() / striped.Seconds()
	return row, nil
}

// TTRRow is the end-to-end time-to-recover of a mid-iteration kill -9
// with the delta engine enabled, under either repair mode.
type TTRRow struct {
	Scenario string  `json:"scenario"`
	Outcome  string  `json:"outcome"`
	WallS    float64 `json:"wall_s"`
	DetectMs float64 `json:"detect_ms"`
	// DetectPushedMs/DetectIntervalMs split DetectMs by what started the
	// detecting scan: a survivor's NotifSuspect nudge (protocol time) or
	// the FD's scan interval (timer time; the only path for a failure
	// nobody is blocked on). One kill per arm, so one of them is zero.
	DetectPushedMs   float64 `json:"detect_pushed_ms"`
	DetectIntervalMs float64 `json:"detect_interval_ms"`
	// AcksWoken/AcksTimedOut: blocked workers the acknowledgment woke vs
	// workers that found it after their communication timeout expired.
	AcksWoken    int64   `json:"acks_woken"`
	AcksTimedOut int64   `json:"acks_timed_out"`
	AckMs        float64 `json:"ack_ms"`
	RebuildMs    float64 `json:"rebuild_ms"`
	// LocalizedMs is the localized-repair phase time (the O(degree)
	// path's replacement for the global rebuild phase; zero on the
	// global-recommit arm).
	LocalizedMs float64 `json:"localized_ms,omitempty"`
	// FailoverMs is the hot-shadow takeover phase time (mirror agreement
	// plus the shadow's local install; replaces the restore phase on the
	// failover arm, zero elsewhere).
	FailoverMs float64 `json:"failover_ms,omitempty"`
	RestoreMs  float64 `json:"restore_ms"`
	TTRMs      float64 `json:"ttr_ms"`
	// ItersLost is the number of iterations re-executed after the
	// recovery, summed across ranks (the failover arm requires zero).
	ItersLost int64 `json:"iters_lost"`
	// Restores by replica source (local/neighbor/remote/pfs).
	RestoreSources string `json:"restore_sources"`
}

// RenderTTR formats the time-to-recover arms as one table. Detection has
// two columns: pushed (a survivor's nudge started the detecting scan — the
// time is protocol) and interval-bound (the scan waited out ScanInterval —
// the time is a timer); "woken/timeout" is how the acknowledgment reached
// the blocked workers.
func RenderTTR(rows []TTRRow) string {
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scenario, r.Outcome, f(r.DetectPushedMs), f(r.DetectIntervalMs),
			fmt.Sprintf("%d/%d", r.AcksWoken, r.AcksTimedOut),
			f(r.AckMs), f(r.RebuildMs), f(r.LocalizedMs), f(r.FailoverMs), f(r.RestoreMs),
			f(r.TTRMs), fmt.Sprintf("%d", r.ItersLost), r.RestoreSources,
		})
	}
	return trace.Table([]string{
		"arm", "outcome", "detect pushed[ms]", "detect interval[ms]", "woken/timeout",
		"ack[ms]", "rebuild[ms]", "localized[ms]", "failover[ms]", "restore[ms]",
		"ttr[ms]", "iters lost", "src l/n/r/p"}, cells)
}

// TTRMode selects the repair/restore path of the time-to-recover arm.
type TTRMode int

// TTR arm modes.
const (
	// TTRGlobal: collective group recommit + checkpoint restore.
	TTRGlobal TTRMode = iota
	// TTRLocalized: O(degree) localized repair + checkpoint restore.
	TTRLocalized
	// TTRFailover: localized repair + hot-shadow takeover — no restore
	// phase, no recomputed iterations.
	TTRFailover
)

// RunTTRBenchMode runs one time-to-recover arm: the scenario engine's
// mid-iteration kill -9 of logical 1 with the delta engine enabled, under
// the selected repair/restore path. The localized arm must charge the
// localized phase; the failover arm must complete a zero-restore takeover
// (failover phase charged, restore phase under a millisecond, and not a
// single iteration recomputed anywhere in the group).
func RunTTRBenchMode(c RecoveryBenchConfig, mode TTRMode) (TTRRow, error) {
	sc := ScenarioMatrixConfig{Seed: 7}.WithDefaults()
	gen := matrix.DefaultGraphene(sc.Nx, sc.Ny, uint64(sc.Seed))
	ref, err := lanczos.SerialLowestEigs(gen, sc.Iters, 2, uint64(sc.Seed))
	if err != nil {
		return TTRRow{}, fmt.Errorf("recovery bench: serial reference: %w", err)
	}
	mid := 2*sc.CheckpointEvery + sc.CheckpointEvery/2
	name := "kill -9 mid-iteration, delta engine, global recommit"
	switch mode {
	case TTRLocalized:
		name = "kill -9 mid-iteration, delta engine, localized repair"
	case TTRFailover:
		name = "kill -9 mid-iteration, delta engine, hot shadow failover"
	}
	spec := ScenarioSpec{
		Scenario: cluster.Scenario{Name: name,
			Events: []cluster.FaultEvent{{Kind: cluster.ProcKill, Logical: 1,
				Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: mid}}}},
		Spares: 2, Async: true, FullEvery: c.WithDefaults().FullEvery,
		Localized: mode != TTRGlobal,
		Expect:    OutcomeRecovered,
	}
	if mode == TTRFailover {
		spec.Replication = 2
		spec.WantZeroRedo = true
	}
	res := RunScenario(sc, gen, spec, ref[0])
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	row := TTRRow{
		Scenario:     spec.Scenario.Name,
		Outcome:      res.Outcome.String(),
		WallS:        res.Wall.Seconds(),
		DetectMs:     ms(res.DetectNS),
		AcksWoken:    res.AcksWoken,
		AcksTimedOut: res.AcksTimedOut,
		AckMs:        ms(res.AckNS),
		RebuildMs:    ms(res.RebuildNS),
		LocalizedMs:  ms(res.LocalizedNS),
		FailoverMs:   ms(res.FailoverNS),
		RestoreMs:    ms(res.RestoreNS),
		TTRMs:        ms(int64(res.TTR())),
		ItersLost:    res.RedoIters,
		RestoreSources: fmt.Sprintf("%d/%d/%d/%d",
			res.RestoreLocal, res.RestoreNeighbor, res.RestoreRemote, res.RestorePFS),
	}
	if res.PushedRecoveries > 0 {
		row.DetectPushedMs = row.DetectMs
	} else {
		row.DetectIntervalMs = row.DetectMs
	}
	if !res.Ok() {
		return row, fmt.Errorf("recovery bench: scenario %q ended %v (want %v): %s",
			spec.Scenario.Name, res.Outcome, spec.Expect, res.Detail)
	}
	if mode != TTRGlobal && res.LocalizedNS == 0 {
		return row, fmt.Errorf("recovery bench: scenario %q never charged the localized phase", spec.Scenario.Name)
	}
	if mode == TTRFailover {
		if res.ShadowFailovers == 0 || res.FailoverNS == 0 {
			return row, fmt.Errorf("recovery bench: scenario %q never completed a hot-shadow takeover (failovers %d, fallbacks %d)",
				spec.Scenario.Name, res.ShadowFailovers, res.ShadowFallbacks)
		}
		if row.RestoreMs >= 1 {
			return row, fmt.Errorf("recovery bench: scenario %q restore phase %.3f ms, want < 1 ms on the failover path",
				spec.Scenario.Name, row.RestoreMs)
		}
		if row.ItersLost != 0 {
			return row, fmt.Errorf("recovery bench: scenario %q recomputed %d iteration(s), want zero on the failover path",
				spec.Scenario.Name, row.ItersLost)
		}
	}
	return row, nil
}

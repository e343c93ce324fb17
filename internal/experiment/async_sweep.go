package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// AsyncSweepConfig parameterizes the sync-versus-async checkpoint study:
// the follow-up work to the source paper (Bazaga 2018) shows that making
// the checkpoint commit asynchronous — double-buffered, flushed by a
// dedicated writer while the application computes — removes nearly all of
// the application-visible checkpoint cost. The sweep crosses checkpoint
// period with commit discipline and adds a faulted run per discipline to
// show recovery correctness is preserved.
type AsyncSweepConfig struct {
	StudyConfig
	// Periods are the checkpoint periods (iterations between checkpoints)
	// swept failure-free in both modes.
	Periods []int64
	// FaultPeriod is the period used for the faulted comparison runs
	// (default: the middle of Periods).
	FaultPeriod int64
	// LocalWriteCost is the model-time latency of one node-local
	// checkpoint commit (the cost the async engine hides). The default,
	// 10 ms, models flushing a multi-GB state image to a RAM disk.
	LocalWriteCost time.Duration
}

// WithDefaults fills the scaled-down defaults.
func (c AsyncSweepConfig) WithDefaults() AsyncSweepConfig {
	c.StudyConfig = c.StudyConfig.withDefaults(StudyConfig{Workers: 8, Spares: 2, Iters: 160, Nx: 48, Ny: 24, Seed: 29})
	if len(c.Periods) == 0 {
		c.Periods = []int64{5, 10, 20, 40}
	}
	if c.FaultPeriod <= 0 {
		c.FaultPeriod = c.Periods[len(c.Periods)/2]
	}
	if c.LocalWriteCost <= 0 {
		c.LocalWriteCost = 10 * time.Millisecond
	}
	return c
}

// AsyncModeRow is one failure-free (period, mode) cell.
type AsyncModeRow struct {
	Period int64
	Mode   string // "sync" or "async"
	// Wall is the end-to-end runtime.
	Wall time.Duration
	// CPVisible is the maximum per-rank application-visible checkpoint
	// time (the phase the worker is blocked in Write).
	CPVisible time.Duration
	// PerIter is CPVisible divided by the iteration count: the headline
	// per-iteration checkpoint overhead.
	PerIter time.Duration
	// Checkpoints is the number of state checkpoints the slowest rank took.
	Checkpoints int64
	// Released sums, over the ranks, the generations the store's retention
	// rule freed (checkpoint.WriterStats).
	Released int64
}

// AsyncFaultRow is one faulted run (one failure at 60% of the run).
type AsyncFaultRow struct {
	Mode     string
	Wall     time.Duration
	Redo     time.Duration
	Restores int64
}

// AsyncSweepResult is the full study.
type AsyncSweepResult struct {
	Cfg    AsyncSweepConfig
	Rows   []AsyncModeRow
	Faults []AsyncFaultRow
}

// asyncModes orders the study's two commit disciplines.
var asyncModes = []struct {
	name string
	mode checkpoint.CheckpointMode
}{
	{"sync", checkpoint.Sync},
	{"async", checkpoint.Async},
}

// RunAsyncSweep executes the study: failure-free period×mode sweep, then
// one faulted run per mode at FaultPeriod.
func RunAsyncSweep(c AsyncSweepConfig) (*AsyncSweepResult, error) {
	c = c.WithDefaults()
	res := &AsyncSweepResult{Cfg: c}
	for _, period := range c.Periods {
		for _, m := range asyncModes {
			wall, sum, err := runAsyncWorkload(c, m.mode, period)
			if err != nil {
				return nil, fmt.Errorf("async sweep period %d %s: %w", period, m.name, err)
			}
			if n := sum.SumCounter[trace.KCoreCPFlushErrors]; n > 0 {
				return nil, fmt.Errorf("async sweep period %d %s: %d replication errors on a failure-free run", period, m.name, n)
			}
			cp := sum.Max[trace.PhaseCheckpoint]
			res.Rows = append(res.Rows, AsyncModeRow{
				Period:      period,
				Mode:        m.name,
				Wall:        wall,
				CPVisible:   cp,
				PerIter:     cp / time.Duration(c.Iters),
				Checkpoints: sum.MaxCounter[trace.KCoreCheckpoints],
				Released:    sum.SumCounter[trace.KCoreCPReleased],
			})
		}
	}
	fail := cluster.ExitAt(int64(float64(c.Iters)*0.6), 1)
	for _, m := range asyncModes {
		wall, sum, err := runAsyncWorkload(c, m.mode, c.FaultPeriod, fail)
		if err != nil {
			return nil, fmt.Errorf("async fault run %s: %w", m.name, err)
		}
		res.Faults = append(res.Faults, AsyncFaultRow{
			Mode:     m.name,
			Wall:     wall,
			Redo:     sum.Max[trace.PhaseRedoWork],
			Restores: sum.SumCounter[trace.KCoreRestores],
		})
	}
	return res, nil
}

func runAsyncWorkload(c AsyncSweepConfig, mode checkpoint.CheckpointMode, period int64, faults ...cluster.FaultEvent) (time.Duration, trace.Summary, error) {
	cfg := core.Config{
		Spares:          c.Spares,
		FT:              FTConfig(PaperCalibration(), c.TimeScale, 8),
		EnableHC:        true,
		EnableCP:        true,
		CheckpointEvery: period,
		CP:              checkpoint.Config{CheckpointMode: mode},
	}
	spec := c.job(cfg, faults, 2)
	// The commit cost the async engine is designed to hide: a fixed
	// node-local latency per checkpoint object, on top of the per-byte
	// costs the default model already carries.
	spec.Cluster.Storage.LocalLatency = scale(c.LocalWriteCost, c.TimeScale)
	job, err := StartJob(spec)
	if err != nil {
		return 0, trace.Summary{}, err
	}
	run := job.Wait()
	return run.Wall, run.Sum, run.Err()
}

// Render formats the study.
func (r *AsyncSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Async checkpoint study — %d workers, %d iters, local commit %v (model), time scale 1/%.0f\n\n",
		r.Cfg.Workers, r.Cfg.Iters, r.Cfg.LocalWriteCost, r.Cfg.TimeScale)
	b.WriteString("period × commit-discipline sweep (failure-free):\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Period),
			row.Mode,
			fmt.Sprintf("%.3f", row.Wall.Seconds()),
			fmt.Sprintf("%.4f", row.CPVisible.Seconds()),
			fmt.Sprintf("%.1f", float64(row.PerIter.Microseconds())),
			fmt.Sprintf("%d", row.Checkpoints),
			fmt.Sprintf("%d", row.Released),
		})
	}
	b.WriteString(trace.Table([]string{"period", "mode", "wall[s]", "cp-visible[s]", "per-iter[µs]", "cps", "released"}, rows))

	// Headline: visible-overhead reduction at the tightest period.
	if len(r.Rows) >= 2 {
		sync, async := r.Rows[0], r.Rows[1]
		if sync.CPVisible > 0 {
			fmt.Fprintf(&b, "\nperiod %d: async hides %.1f%% of the sync-visible checkpoint time (%.4fs -> %.4fs)\n",
				sync.Period,
				100*(1-float64(async.CPVisible)/float64(sync.CPVisible)),
				sync.CPVisible.Seconds(), async.CPVisible.Seconds())
		}
	}

	b.WriteString("\nfaulted comparison (one failure at 60%, period ")
	fmt.Fprintf(&b, "%d):\n", r.Cfg.FaultPeriod)
	rows = rows[:0]
	for _, f := range r.Faults {
		rows = append(rows, []string{
			f.Mode,
			fmt.Sprintf("%.3f", f.Wall.Seconds()),
			fmt.Sprintf("%.3f", f.Redo.Seconds()),
			fmt.Sprintf("%d", f.Restores),
		})
	}
	b.WriteString(trace.Table([]string{"mode", "wall[s]", "redo[s]", "restores"}, rows))
	return b.String()
}

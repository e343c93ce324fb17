package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// CPSweepConfig parameterizes the checkpoint-strategy and
// checkpoint-interval study motivated by the paper's discussion ("Owing to
// a good checkpoint strategy with very low overhead, the checkpoint
// frequency can be increased which will lead to the reduction of redo-work
// time", §VI) and by its §IV.E distinction between global PFS-level and
// neighbor-level checkpoints.
type CPSweepConfig struct {
	StudyConfig
	// Intervals are the checkpoint intervals swept (with one failure).
	Intervals []int64
}

// WithDefaults fills the scaled-down defaults.
func (c CPSweepConfig) WithDefaults() CPSweepConfig {
	c.StudyConfig = c.StudyConfig.withDefaults(StudyConfig{Workers: 16, Spares: 2, Iters: 240, Nx: 64, Ny: 32, Seed: 23})
	if len(c.Intervals) == 0 {
		c.Intervals = []int64{10, 20, 40, 80, 160}
	}
	return c
}

// CPStrategyRow compares checkpoint placements at a fixed interval,
// failure-free: the app-visible checkpoint cost is the point.
type CPStrategyRow struct {
	Name    string
	Wall    time.Duration
	CPPhase time.Duration // application-visible checkpoint time
}

// CPIntervalRow is one interval of the failure sweep.
type CPIntervalRow struct {
	Interval int64
	Wall     time.Duration
	CPPhase  time.Duration
	Redo     time.Duration
	// RedoIters is the iteration count behind Redo: the most iterations
	// any one rank re-executed after the recovery.
	RedoIters int64
	// Released sums, over the ranks that finished, the generations the
	// store's retention rule freed (checkpoint.WriterStats).
	Released int64
}

// CPSweepResult is the full study.
type CPSweepResult struct {
	Cfg        CPSweepConfig
	Strategies []CPStrategyRow
	Intervals  []CPIntervalRow
	// DalyOptimal is the classic Young/Daly optimum sqrt(2·δ·MTTI) in
	// iterations, computed from the measured per-checkpoint cost and the
	// one-failure-per-run horizon, for comparison against the sweep's
	// empirical minimum.
	DalyOptimal float64
}

// RunCPSweep executes both parts of the study.
func RunCPSweep(c CPSweepConfig) (*CPSweepResult, error) {
	c = c.WithDefaults()
	res := &CPSweepResult{Cfg: c}

	// Part 1: strategy comparison, failure-free, fixed interval.
	for _, st := range []struct {
		name string
		cp   bool
		mode checkpoint.Mode
	}{
		{"no checkpoints", false, checkpoint.ModeNeighbor},
		{"neighbor-level (paper)", true, checkpoint.ModeNeighbor},
		{"global PFS-level", true, checkpoint.ModeGlobalPFS},
	} {
		wall, sum, err := runCPWorkload(c, st.cp, st.mode, 40)
		if err != nil {
			return nil, fmt.Errorf("cp strategy %q: %w", st.name, err)
		}
		res.Strategies = append(res.Strategies, CPStrategyRow{
			Name:    st.name,
			Wall:    wall,
			CPPhase: sum.Max[trace.PhaseCheckpoint],
		})
	}

	// Part 2: interval sweep with one failure at 60% of the run.
	fail := cluster.ExitAt(int64(float64(c.Iters)*0.6), 1)
	for _, interval := range c.Intervals {
		wall, sum, err := runCPWorkload(c, true, checkpoint.ModeNeighbor, interval, fail)
		if err != nil {
			return nil, fmt.Errorf("cp interval %d: %w", interval, err)
		}
		res.Intervals = append(res.Intervals, CPIntervalRow{
			Interval:  interval,
			Wall:      wall,
			CPPhase:   sum.Max[trace.PhaseCheckpoint],
			Redo:      sum.Max[trace.PhaseRedoWork],
			RedoIters: sum.MaxCounter[trace.KCoreRedoIters],
			Released:  sum.SumCounter[trace.KCoreCPReleased],
		})
	}

	// Daly: t_opt = sqrt(2·δ·M) with δ = per-checkpoint cost (seconds) and
	// M = mean time to interrupt ≈ the whole run here (one failure).
	if len(res.Intervals) > 0 {
		nCheckpoints := float64(c.Iters) / float64(c.Intervals[0])
		delta := res.Intervals[0].CPPhase.Seconds() / math.Max(1, nCheckpoints)
		cal := PaperCalibration()
		stepSec := scale(cal.StepTime, c.TimeScale).Seconds()
		mtti := float64(c.Iters) * stepSec
		res.DalyOptimal = math.Sqrt(2*delta*mtti) / stepSec
	}
	return res, nil
}

func runCPWorkload(c CPSweepConfig, cp bool, mode checkpoint.Mode, interval int64, faults ...cluster.FaultEvent) (time.Duration, trace.Summary, error) {
	cfg := core.Config{
		Spares:          c.Spares,
		FT:              FTConfig(PaperCalibration(), c.TimeScale, 8),
		EnableHC:        true,
		EnableCP:        cp,
		CheckpointEvery: interval,
		CP:              checkpoint.Config{Mode: mode},
	}
	job, err := StartJob(c.job(cfg, faults, 2))
	if err != nil {
		return 0, trace.Summary{}, err
	}
	run := job.Wait()
	return run.Wall, run.Sum, run.Err()
}

// Render formats both tables.
func (r *CPSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint study — %d workers, %d iters, time scale 1/%.0f\n\n",
		r.Cfg.Workers, r.Cfg.Iters, r.Cfg.TimeScale)
	b.WriteString("strategy comparison (failure-free, interval 40):\n")
	rows := make([][]string, 0, len(r.Strategies))
	for _, s := range r.Strategies {
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%.3f", s.Wall.Seconds()),
			fmt.Sprintf("%.4f", s.CPPhase.Seconds()),
		})
	}
	b.WriteString(trace.Table([]string{"strategy", "wall[s]", "cp-visible[s]"}, rows))

	b.WriteString("\ncheckpoint interval sweep (one failure at 60%):\n")
	rows = rows[:0]
	for _, iv := range r.Intervals {
		rows = append(rows, []string{
			fmt.Sprintf("%d", iv.Interval),
			fmt.Sprintf("%.3f", iv.Wall.Seconds()),
			fmt.Sprintf("%.4f", iv.CPPhase.Seconds()),
			fmt.Sprintf("%.3f", iv.Redo.Seconds()),
			fmt.Sprintf("%d", iv.Released),
		})
	}
	b.WriteString(trace.Table([]string{"interval", "wall[s]", "cp-visible[s]", "redo[s]", "released"}, rows))
	fmt.Fprintf(&b, "\nYoung/Daly optimum ≈ %.0f iterations (from measured per-checkpoint cost)\n", r.DalyOptimal)
	return b.String()
}

package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// Fig4Config parameterizes the Figure 4 reproduction. The paper's run:
// 256 worker processes + 4 idle, graphene matrix with 1.2e8 rows, 3500
// iterations, checkpoints every 500, exit(-1) kills at deterministic
// iterations.
type Fig4Config struct {
	StudyConfig
	// CheckpointEvery is the checkpoint interval (paper: 500).
	CheckpointEvery int64
	// FailOffset is where failures hit within a checkpoint interval, as a
	// fraction (the paper's deterministic kills produce ≈47 s redo-work ≈
	// 0.24 of the 500-iteration interval).
	FailOffset float64
	// Threads is the FD scan parallelism (paper: 8).
	Threads int
}

// WithDefaults fills the scaled-down defaults.
func (c Fig4Config) WithDefaults() Fig4Config {
	c.StudyConfig = c.StudyConfig.withDefaults(StudyConfig{Workers: 32, Spares: 4, Iters: 350, Nx: 128, Ny: 64, Seed: 42})
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50
	}
	if c.FailOffset <= 0 {
		c.FailOffset = 0.24
	}
	if c.Threads <= 0 {
		c.Threads = 8
	}
	return c
}

// Fig4Scenario is one bar of Figure 4.
type Fig4Scenario struct {
	// Name matches the paper's bar label.
	Name string
	// Wall is the measured runtime.
	Wall time.Duration
	// Model is the runtime scaled back to model (paper) time.
	Model time.Duration
	// Phases is the critical-path decomposition (max across ranks) by
	// trace phase, in measured time.
	Phases [trace.NumPhases]time.Duration
	// Recoveries is the number of recovery epochs.
	Recoveries int64
	// Eigs are the final lowest eigenvalues (all scenarios must agree).
	Eigs []float64
}

// Fig4Result is the full figure.
type Fig4Result struct {
	Cfg       Fig4Config
	Scenarios []Fig4Scenario
}

// fig4Plan is one bar's configuration: health check, checkpointing, and
// the exit(-1) kills.
type fig4Plan struct {
	name   string
	hc, cp bool
	faults []cluster.FaultEvent
}

// fig4Plans returns the scenario list matching the paper's seven bars.
func fig4Plans(c Fig4Config) []fig4Plan {
	interval := c.CheckpointEvery
	off := int64(float64(interval) * c.FailOffset)
	at := func(k int64, logical int) cluster.FaultEvent { return cluster.ExitAt(k*interval+off, logical) }
	return []fig4Plan{
		{"w/o HC, w/o CP", false, false, nil},
		{"w/o HC, with CP", false, true, nil},
		{"with HC, with CP", true, true, nil},
		{"1 fail recovery", true, true, []cluster.FaultEvent{at(2, 1)}},
		{"2 fail recovery", true, true, []cluster.FaultEvent{at(2, 1), at(4, 2)}},
		{"3 fail recovery", true, true, []cluster.FaultEvent{at(1, 1), at(3, 2), at(5, 3)}},
		{"3 sim. fail recovery", true, true, []cluster.FaultEvent{at(2, 1), at(2, 2), at(2, 3)}},
	}
}

// RunFig4 executes all seven scenarios and returns the figure data. A bar
// whose kills do not all fire (scheduled past Iters) is an error.
func RunFig4(c Fig4Config) (*Fig4Result, error) {
	c = c.WithDefaults()
	res := &Fig4Result{Cfg: c}
	for _, plan := range fig4Plans(c) {
		cfg := core.Config{
			Spares:          c.Spares,
			FT:              FTConfig(PaperCalibration(), c.TimeScale, c.Threads),
			EnableHC:        plan.hc,
			EnableCP:        plan.cp,
			CheckpointEvery: c.CheckpointEvery,
		}
		job, err := StartJob(c.job(cfg, plan.faults, 4))
		if err != nil {
			return nil, fmt.Errorf("fig4 %q: %w", plan.name, err)
		}
		run := job.Wait()
		if err := run.Err(); err != nil {
			return nil, fmt.Errorf("fig4 %q: %w", plan.name, err)
		}
		eigs, err := run.Solver.Eigenvalues()
		if err != nil {
			return nil, fmt.Errorf("fig4 %q: %w", plan.name, err)
		}
		res.Scenarios = append(res.Scenarios, Fig4Scenario{
			Name:       plan.name,
			Wall:       run.Wall,
			Model:      Model(run.Wall, c.TimeScale),
			Phases:     run.Sum.Max,
			Recoveries: run.Recorders[0].Counter(trace.KFDRecoveries),
			Eigs:       eigs,
		})
	}
	return res, nil
}

// Render formats the figure as the paper's stacked bars plus a numeric
// table in both measured and model time.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — Lanczos runtime scenarios (%d workers + %d spares, %d iters, CP every %d, time scale 1/%.0f)\n\n",
		r.Cfg.Workers, r.Cfg.Spares, r.Cfg.Iters, r.Cfg.CheckpointEvery, r.Cfg.TimeScale)

	labels := make([]string, len(r.Scenarios))
	data := make([][]float64, len(r.Scenarios))
	comps := []string{"computation", "redo-work", "re-initialize", "fault-detection"}
	for i, sc := range r.Scenarios {
		labels[i] = sc.Name
		data[i] = []float64{
			(sc.Phases[trace.PhaseCompute] + sc.Phases[trace.PhaseCheckpoint]).Seconds(),
			sc.Phases[trace.PhaseRedoWork].Seconds(),
			sc.Phases[trace.PhaseReinit].Seconds(),
			sc.Phases[trace.PhaseDetect].Seconds(),
		}
	}
	b.WriteString(trace.RenderStackedBars(labels, comps, data, 50))
	b.WriteString("\n")

	rows := make([][]string, 0, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		rows = append(rows, []string{
			sc.Name,
			fmt.Sprintf("%.3f", sc.Wall.Seconds()),
			fmt.Sprintf("%.1f", sc.Model.Seconds()),
			fmt.Sprintf("%.3f", sc.Phases[trace.PhaseCompute].Seconds()),
			fmt.Sprintf("%.4f", sc.Phases[trace.PhaseCheckpoint].Seconds()),
			fmt.Sprintf("%.3f", sc.Phases[trace.PhaseRedoWork].Seconds()),
			fmt.Sprintf("%.3f", sc.Phases[trace.PhaseReinit].Seconds()),
			fmt.Sprintf("%.3f", sc.Phases[trace.PhaseDetect].Seconds()),
			fmt.Sprintf("%d", sc.Recoveries),
		})
	}
	b.WriteString(trace.Table([]string{
		"scenario", "wall[s]", "model[s]", "compute", "cp", "redo", "reinit", "detect", "recov"},
		rows))
	return b.String()
}

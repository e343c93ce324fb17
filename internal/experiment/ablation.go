package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/trace"
)

// AblationConfig parameterizes the Section IV.A.b detector comparison:
// dedicated-FD one-sided ping (the paper's choice) versus all-to-all ping
// and neighbor-ring ping (investigated and rejected), plus the
// threaded-vs-serial FD scan (which is what makes simultaneous failures
// cost one detection).
type AblationConfig struct {
	// StudyConfig sizes the overhead workload; its Spares is unused (the
	// workload runs one spare, the detection comparison four).
	StudyConfig
}

// WithDefaults fills defaults.
func (c AblationConfig) WithDefaults() AblationConfig {
	c.StudyConfig = c.StudyConfig.withDefaults(StudyConfig{Workers: 16, Iters: 150, Nx: 64, Ny: 32, Seed: 17})
	return c
}

// AblationRow is one detector variant's measurement.
type AblationRow struct {
	// Name identifies the variant.
	Name string
	// Wall is the failure-free workload runtime.
	Wall time.Duration
	// Pings is the total number of pings issued fabric-wide — under the
	// dedicated FD its scans plus the successor pings of blocked workers.
	Pings uint64
	// PingsPerPeriod is Pings over the detection periods the run lasted
	// (the FD's scans, or the probers' average round count): the
	// detector's cost rate, independent of how long the run took. Zero
	// without a detector.
	PingsPerPeriod float64
	// OverheadPct is the runtime overhead versus the no-detector baseline.
	OverheadPct float64
}

// AblationResult holds the failure-free overhead comparison plus the
// simultaneous-failure detection comparison of serial vs threaded FD.
type AblationResult struct {
	Cfg  AblationConfig
	Rows []AblationRow
	// SerialDetect/ThreadedDetect are the times for a 3-simultaneous-kill
	// detection by a serial and an 8-thread FD scan.
	SerialDetect, ThreadedDetect time.Duration
}

// RunAblation executes the comparison.
func RunAblation(c AblationConfig) (*AblationResult, error) {
	c = c.WithDefaults()
	res := &AblationResult{Cfg: c}

	var baseline time.Duration
	for _, variant := range []string{"no detector", "dedicated FD (paper)", "all-to-all ping", "neighbor-ring ping"} {
		wall, pings, periods, err := runAblationWorkload(c, variant)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", variant, err)
		}
		row := AblationRow{Name: variant, Wall: wall, Pings: pings}
		if periods > 0 {
			row.PingsPerPeriod = float64(pings) / periods
		}
		if variant == "no detector" {
			baseline = wall
		}
		if baseline > 0 {
			row.OverheadPct = (wall.Seconds()/baseline.Seconds() - 1) * 100
		}
		res.Rows = append(res.Rows, row)
	}

	// Average the detection comparison over a few repetitions: a single
	// sample is dominated by where in the scan period the injection lands.
	const reps = 3
	for i := 0; i < reps; i++ {
		s, err := runSimultaneousDetection(c, 1)
		if err != nil {
			return nil, fmt.Errorf("ablation serial detect: %w", err)
		}
		th, err := runSimultaneousDetection(c, 8)
		if err != nil {
			return nil, fmt.Errorf("ablation threaded detect: %w", err)
		}
		res.SerialDetect += s / reps
		res.ThreadedDetect += th / reps
	}
	return res, nil
}

// runAblationWorkload runs the failure-free Lanczos workload under one
// detector variant and reports the wall time, the total pings and the
// number of detection periods they were spent over.
func runAblationWorkload(c AblationConfig, variant string) (time.Duration, uint64, float64, error) {
	cfg := core.Config{
		Spares:          1,
		FT:              FTConfig(PaperCalibration(), c.TimeScale, 8),
		EnableHC:        variant == "dedicated FD (paper)",
		EnableCP:        true,
		CheckpointEvery: 50,
	}
	spec := c.job(cfg, nil, 2)
	// A light compute load so detector interference is visible.
	spec.App.StepDelay /= 4
	probers := make(chan *Prober, spec.Cluster.Nodes)
	spec.Wrap = func(a *apps.Lanczos) core.App {
		return &proberApp{App: a, variant: variant, cfg: cfg.FT, probers: probers}
	}
	run, err := StartJob(spec)
	if err != nil {
		return 0, 0, 0, err
	}
	res := run.Wait()
	close(probers)
	periods := float64(res.Recorders[0].Counter(trace.KFDScans))
	var rounds, n int64
	for b := range probers {
		b.Stop()
		rounds += b.Stats().Scans
		n++
	}
	if n > 0 {
		periods = float64(rounds) / float64(n)
	}
	if err := res.Err(); err != nil {
		return 0, 0, 0, err
	}
	pings := run.Job.Cluster.Job().Transport().Stats().PerKind[10] // kPing
	return res.Wall, pings, periods, nil
}

// proberApp wraps an App so that the alternative detectors (which run on
// the application processes, unlike the dedicated FD) start with Init and
// stop when the workload finishes.
type proberApp struct {
	core.App
	variant string
	cfg     ft.Config
	probers chan *Prober
	started bool
}

func (a *proberApp) Init(ctx *core.Ctx, restore bool) error {
	if !a.started {
		a.started = true
		switch a.variant {
		case "all-to-all ping":
			b := NewAllToAllProber(ctx.Proc, a.cfg, ctx.Rec)
			b.Start()
			a.probers <- b
		case "neighbor-ring ping":
			b := NewNeighborProber(ctx.Proc, a.cfg, ctx.Rec)
			b.Start()
			a.probers <- b
		}
	}
	return a.App.Init(ctx, restore)
}

// runSimultaneousDetection kills three workers at once and measures the
// FD's detection+acknowledgment latency with the given scan parallelism.
func runSimultaneousDetection(c AblationConfig, threads int) (time.Duration, error) {
	cal := PaperCalibration()
	nodes := 2 + c.Workers + 3 // FD + spare headroom
	lay := ft.Layout{Procs: nodes, Spares: 4}
	ftcfg := FTConfig(cal, c.TimeScale, threads)
	detect, _, err := detectAck(ClusterConfig(nodes, cal, c.TimeScale, c.Seed), lay, ftcfg, 2*ftcfg.ScanInterval,
		func() []gaspi.Rank {
			return []gaspi.Rank{lay.InitialPhysical(0), lay.InitialPhysical(1), lay.InitialPhysical(2)}
		})
	return detect, err
}

// Render formats the ablation report.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detector ablation (§IV.A.b) — %d workers, %d iters, time scale 1/%.0f\n\n",
		r.Cfg.Workers, r.Cfg.Iters, r.Cfg.TimeScale)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.3f", row.Wall.Seconds()),
			fmt.Sprintf("%d", row.Pings),
			fmt.Sprintf("%+.2f%%", row.OverheadPct),
		})
	}
	b.WriteString(trace.Table([]string{"detector", "wall[s]", "pings", "overhead"}, rows))
	fmt.Fprintf(&b, "\n3 simultaneous failures, detection+ack:\n")
	fmt.Fprintf(&b, "  serial FD scan   : %.4fs (model %.2fs)\n",
		r.SerialDetect.Seconds(), Model(r.SerialDetect, r.Cfg.TimeScale).Seconds())
	fmt.Fprintf(&b, "  8-thread FD scan : %.4fs (model %.2fs)\n",
		r.ThreadedDetect.Seconds(), Model(r.ThreadedDetect, r.Cfg.TimeScale).Seconds())
	return b.String()
}

// Package experiment regenerates the paper's evaluation: Figure 4 (runtime
// decomposition of the fault-tolerant Lanczos under various failure
// scenarios), Table I (fault-detector scaling), the Section IV.A.b
// detector ablation, the checkpoint strategy/interval study (cpsweep.go),
// and the sync-versus-async checkpoint commit study from the follow-up
// work (async_sweep.go). Everything runs on the simulated cluster with
// latency parameters calibrated to the paper's testbed divided by a
// time-scale factor; results report both measured (wall-clock) and model
// (scaled-back) times.
package experiment

import (
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/lanczos"
	"repro/internal/matrix"
)

// DefaultTimeScale compresses the paper's timing constants: 1 model second
// = 10 real milliseconds.
const DefaultTimeScale = 100.0

// StudyConfig sizes a study's Lanczos jobs: the fields the Figure 4
// reproduction, the checkpoint studies and the detector ablation share.
type StudyConfig struct {
	// Workers is the worker process count (paper: 256).
	Workers int
	// Spares is the idle spare count; the FD is extra (paper: 4).
	Spares int
	// Iters is the Lanczos iteration count (paper: 3500).
	Iters int
	// Nx, Ny size the graphene sheet (paper: 1.2e8 rows; scaled down).
	Nx, Ny int
	// TimeScale divides all calibrated times (default DefaultTimeScale).
	TimeScale float64
	// Seed controls matrix disorder and fabric jitter.
	Seed int64
}

// withDefaults fills every unset field from def, and TimeScale with
// DefaultTimeScale.
func (s StudyConfig) withDefaults(def StudyConfig) StudyConfig {
	if s.Workers <= 0 {
		s.Workers = def.Workers
	}
	if s.Spares <= 0 {
		s.Spares = def.Spares
	}
	if s.Iters <= 0 {
		s.Iters = def.Iters
	}
	if s.Nx <= 0 {
		s.Nx = def.Nx
	}
	if s.Ny <= 0 {
		s.Ny = def.Ny
	}
	if s.TimeScale <= 0 {
		s.TimeScale = DefaultTimeScale
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	return s
}

// job is a study's Lanczos job on the paper-calibrated testbed: the FD,
// cfg.Spares spares and the workers one node each, the faults scheduled
// (none: no scenario armed), iterations at the calibrated step time, numEigs
// tracked and convergence checked at every checkpoint interval, or once at
// the last iteration when the job is shorter than one interval.
func (s StudyConfig) job(cfg core.Config, faults []cluster.FaultEvent, numEigs int) JobSpec {
	cal := PaperCalibration()
	ccfg := ClusterConfig(1+cfg.Spares+s.Workers, cal, s.TimeScale, s.Seed)
	if len(faults) > 0 {
		ccfg.Scenario = &cluster.Scenario{Events: faults}
	}
	return JobSpec{
		Cluster: ccfg,
		Core:    cfg,
		App: apps.LanczosConfig{
			Gen:       matrix.DefaultGraphene(s.Nx, s.Ny, uint64(s.Seed)),
			Opts:      lanczos.Options{MaxIters: s.Iters, NumEigs: numEigs, CheckEvery: min(int(cfg.CheckpointEvery), s.Iters), Seed: uint64(s.Seed)},
			StepDelay: scale(cal.StepTime, s.TimeScale),
		},
		Timeout: 10 * time.Minute,
	}
}

// Calibration holds the paper-calibrated timing constants (model time,
// i.e. what the paper reports).
type Calibration struct {
	// PingRTT is the per-process ping cost (paper: ≈1 ms).
	PingRTT time.Duration
	// ScanInterval is the FD scan period (paper: 3 s).
	ScanInterval time.Duration
	// CommTimeout is the worker blocking-call timeout (paper: 1 s).
	CommTimeout time.Duration
	// StepTime is the per-iteration compute time (paper: ≈1400 s/3500
	// iterations ≈ 400 ms on 256 nodes).
	StepTime time.Duration
}

// PaperCalibration returns the constants from Section VI of the paper.
func PaperCalibration() Calibration {
	return Calibration{
		PingRTT:      time.Millisecond,
		ScanInterval: 3 * time.Second,
		CommTimeout:  time.Second,
		StepTime:     400 * time.Millisecond,
	}
}

// scale divides a model duration by the time-scale factor.
func scale(d time.Duration, timeScale float64) time.Duration {
	return time.Duration(float64(d) / timeScale)
}

// Model converts a measured (real) duration back to model time.
func Model(d time.Duration, timeScale float64) time.Duration {
	return time.Duration(float64(d) * timeScale)
}

// ClusterConfig builds the simulated-cluster configuration for a given
// node count: fabric latency such that one ping round trip costs
// PingRTT/timeScale (a ping is two fabric messages), QDR-class bandwidth,
// and the storage-tier cost model.
func ClusterConfig(nodes int, cal Calibration, timeScale float64, seed int64) cluster.Config {
	base := scale(cal.PingRTT, timeScale) / 2
	if base <= 0 {
		base = time.Microsecond
	}
	return cluster.Config{
		Nodes: nodes,
		Gaspi: gaspi.Config{
			Latency: fabric.LatencyModel{
				Base: base,
				// ~3.2 GB/s QDR: 0.31 ns/B, time-scaled.
				PerByteNs: 0.31 / timeScale * 100, // stays ~0.31 at scale 100
				Jitter:    0.1,
			},
			Seed: seed,
		},
		Storage: cluster.StorageModel{
			// Node-local storage ~1 GB/s, node-to-node ~3 GB/s, PFS ~0.5
			// GB/s shared over 4 streams; all time-scaled.
			LocalPerByte: time.Nanosecond,
			PFSLatency:   scale(10*time.Millisecond, timeScale),
			PFSPerByte:   2 * time.Nanosecond,
			PFSWidth:     4,
		},
	}
}

// FTConfig builds the fault-tolerance timing knobs from the calibration.
// The retry-tolerant ping budget (ft.DefaultPingRetries) is set
// explicitly: at the default 1/100 time scale a single ping timeout is
// 10 ms REAL time, which a shared-CPU host's scheduler can exceed for a
// perfectly healthy rank — the retries are what keep the aggressive time
// compression free of detector false positives.
func FTConfig(cal Calibration, timeScale float64, threads int) ft.Config {
	return ft.Config{
		ScanInterval: scale(cal.ScanInterval, timeScale),
		PingTimeout:  scale(cal.CommTimeout, timeScale),
		CommTimeout:  scale(cal.CommTimeout, timeScale),
		Threads:      threads,
		PingRetries:  ft.DefaultPingRetries,
		StallLimit:   scale(100*cal.CommTimeout, timeScale),
	}
}

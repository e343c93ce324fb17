package main

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
)

// workers is the worker-rank count of every workload: four ranks plus the
// FD plus the spares share the host's cores (two on the reference box), so
// a rank waiting on a peer is usually waiting for that peer to get a core.
const workers = 4

// kill is one scheduled ProcKill: the holder of logical rank Logical is
// killed when it starts iteration Iter.
type kill struct {
	Logical int
	Iter    int64
}

// spec is one job configuration. Everything that is not listed here is
// the common set-up of clusterConfig/coreConfig.
type spec struct {
	Name   string
	Why    string
	Nx, Ny int
	// Iters is the Lanczos iteration count of one measured job.
	Iters int
	// Async selects checkpoint.Async with FullEvery 4 (the delta engine
	// over the GASPI checkpoint stream); otherwise checkpoint.Sync.
	Async   bool
	CPEvery int64
	Spares  int
	// Localized/Replication select the recovery mode: global recommit
	// (false, 0), or localized repair with hot shadows for the first
	// Replication logical ranks.
	Localized   bool
	Replication int
	Kills       []kill
	// RefIters is how many leading iterations the correctness gate
	// compares against the serial reference (the whole run on kill jobs).
	RefIters int
	// NoCP/NoHC switch state checkpoints / the health check off; only the
	// traced pass's counterfactual reruns set them.
	NoCP, NoHC bool
}

// steady reports whether the workload is failure-free.
func (s spec) steady() bool { return len(s.Kills) == 0 }

// workloads is the benchmark's fixed workload set. Problem sizes and
// checkpoint periods are part of the benchmark definition: change them and
// every recorded number loses its baseline.
var workloads = []spec{
	{
		Name: "steady_compute",
		Why:  "dim 65536 (CSR 14 MB, beyond the two 4 MB L2), 2 sync checkpoints in 500 iterations: the spMVM kernel is the largest part; cp_stream's matrix without its checkpoint stream",
		Nx:   256, Ny: 128, Iters: 500, CPEvery: 200, Spares: 2, RefIters: 300,
	},
	{
		Name: "steady_comm",
		Why:  "dim 1024, 3500 iterations: the iteration is gaspi post/flush/notify-wait and two allreduces over the fabric; compute is ~15 us",
		Nx:   32, Ny: 16, Iters: 3500, CPEvery: 500, Spares: 2, RefIters: 300,
	},
	{
		Name: "cp_stream",
		Why:  "dim 65536, async delta checkpoint every 10 iterations: bulk checkpoint-stream frames share the fabric with small halo notifies",
		Nx:   256, Ny: 128, Iters: 1500, Async: true, CPEvery: 10, Spares: 2, RefIters: 300,
	},
	{
		Name: "kill_restore",
		Why:  "two kills per 200-iteration job, global recommit: FD scan, ack, group rebuild, checkpoint restore, redo (the paper's path)",
		Nx:   128, Ny: 128, Iters: 200, Async: true, CPEvery: 20, Spares: 3, RefIters: 200,
		Kills: []kill{{Logical: 1, Iter: 70}, {Logical: 2, Iter: 150}},
	},
	{
		Name: "kill_failover",
		Why:  "same kills on shadowed ranks with localized repair: state comes from the live mirror, not the store; expect zero redo",
		Nx:   128, Ny: 128, Iters: 200, Async: true, CPEvery: 20, Spares: 3, RefIters: 200,
		Localized: true, Replication: 2,
		Kills: []kill{{Logical: 1, Iter: 70}, {Logical: 0, Iter: 150}},
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// ftTiming is the scenario-matrix testbed timing (copied: the experiment
// package keeps its cluster config unexported). Detection is timer-bound
// by design — the paper's FD scans on an interval.
var ftTiming = ft.Config{
	ScanInterval: 5 * time.Millisecond,
	PingTimeout:  10 * time.Millisecond,
	CommTimeout:  10 * time.Millisecond,
	Threads:      4,
	StallLimit:   2 * time.Second,
}

func (s spec) procs() int { return 1 + s.Spares + workers }

// clusterConfig builds the testbed for one job. The seed drives the fabric
// jitter streams; kill iterations are fixed by the spec.
func (s spec) clusterConfig(seed int64) cluster.Config {
	cc := cluster.Config{
		Nodes: s.procs(),
		Gaspi: gaspi.Config{
			Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
			Seed:    seed,
		},
		Storage: cluster.StorageModel{
			LocalPerByte: time.Nanosecond / 4,
			XferPerByte:  time.Nanosecond,
			PFSPerByte:   4 * time.Nanosecond,
			PFSWidth:     2,
		},
	}
	if len(s.Kills) > 0 {
		sc := &cluster.Scenario{Name: s.Name}
		for _, k := range s.Kills {
			sc.Events = append(sc.Events, cluster.FaultEvent{
				Kind:    cluster.ProcKill,
				Logical: k.Logical,
				Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: k.Iter},
			})
		}
		cc.Scenario = sc
	}
	return cc
}

func (s spec) coreConfig() core.Config {
	f := ftTiming
	f.LocalizedRepair = s.Localized
	if s.Replication > 0 {
		f.Replication = map[string]int{"state": s.Replication}
	}
	cp := checkpoint.Config{CheckpointMode: checkpoint.Sync}
	if s.Async {
		cp = checkpoint.Config{CheckpointMode: checkpoint.Async, FullEvery: 4}
	}
	every := s.CPEvery
	if s.NoCP {
		// The plan checkpoint of Init is still written (EnableCP stays on,
		// as a rescue would need it); only state checkpoints past
		// iteration 0 are switched off.
		every = int64(s.Iters) + 1
	}
	return core.Config{
		Spares:          s.Spares,
		FT:              f,
		EnableHC:        !s.NoHC,
		EnableCP:        true,
		CheckpointEvery: every,
		CP:              cp,
	}
}

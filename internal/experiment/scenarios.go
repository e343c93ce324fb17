package experiment

// The scenario matrix: the repo's compound-fault validation suite. Where
// fig4.go reproduces the paper's seven bars (single and simultaneous
// exit(-1) kills), the matrix drives the declarative fault-scenario
// engine (cluster.Scenario) through the failure modes the paper names —
// process exit, kill -9, network loss, whole-node death — and the
// compound cases the recovery epoch state machine exists for: a second
// failure while a recovery epoch is in flight, a failure racing the
// asynchronous checkpoint flusher, and the loss of a node together with
// the node holding its checkpoint replicas (forcing the PFS fallback).
// Every scenario must terminate as recovered-with-correct-result or as a
// crisp unrecoverable abort — never hang, never produce a wrong answer.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// ScenarioOutcome classifies how a scenario run ended.
type ScenarioOutcome int

// Outcomes.
const (
	// OutcomeRecovered: the job completed and the surviving result
	// matches the serial reference.
	OutcomeRecovered ScenarioOutcome = iota
	// OutcomeUnrecoverable: the job aborted crisply — the FD declared the
	// failure unrecoverable (restriction 1), or workers detected the loss
	// of detection capability and stalled out (restriction 2). Both are
	// the acceptable "fail loudly" terminations.
	OutcomeUnrecoverable
	// OutcomeWrongAnswer: the job completed but the result is wrong —
	// silent corruption, the one absolutely forbidden outcome.
	OutcomeWrongAnswer
	// OutcomeHung: the job did not terminate within the deadline.
	OutcomeHung
	// OutcomeFailed: a rank failed with an unexpected error (a harness or
	// protocol bug, not a classified fault outcome).
	OutcomeFailed
)

func (o ScenarioOutcome) String() string {
	switch o {
	case OutcomeRecovered:
		return "recovered"
	case OutcomeUnrecoverable:
		return "unrecoverable"
	case OutcomeWrongAnswer:
		return "WRONG-ANSWER"
	case OutcomeHung:
		return "HUNG"
	default:
		return "FAILED"
	}
}

// ScenarioSpec is one row of the matrix: a fault schedule plus the
// configuration it runs under and the outcome it must produce.
type ScenarioSpec struct {
	// Scenario is the declarative fault schedule.
	Scenario cluster.Scenario
	// Spares is the idle-spare count for this row (the FD is extra).
	Spares int
	// Async runs the asynchronous double-buffered checkpoint engine.
	Async bool
	// PFSEvery writes every k-th checkpoint version also to the PFS.
	PFSEvery int
	// Replication assigns hot shadows to the first k logical ranks (the
	// ft.Config.Replication degree for the state family).
	Replication int
	// Expect is the required outcome.
	Expect ScenarioOutcome
	// WantPFSRestore additionally requires at least one restore served
	// from the PFS (the double-node-loss fallback proof).
	WantPFSRestore bool
	// WantZeroRedo additionally requires that no iteration was
	// re-executed after recovery — the hot-shadow takeover acceptance
	// criterion (iters_lost == 0).
	WantZeroRedo bool
}

// ScenarioMatrixConfig parameterizes a matrix run. Timing is NOT taken
// from the paper calibration: the matrix is a correctness suite meant to
// run under -short and the race detector, so it uses scheduler-tolerant
// test timings (millisecond-scale FT timeouts over a microsecond-latency
// fabric) rather than aggressively compressed paper constants.
type ScenarioMatrixConfig struct {
	// Workers is the worker count (default 4).
	Workers int
	// Iters is the Lanczos iteration count (default 60).
	Iters int
	// CheckpointEvery is the checkpoint interval (default 10).
	CheckpointEvery int64
	// Nx, Ny size the graphene sheet (default 16×8).
	Nx, Ny int
	// StepDelay slows iterations so mid-compute triggers land mid-compute
	// (default 2 ms).
	StepDelay time.Duration
	// Timeout is the per-scenario hang deadline (default 90 s).
	Timeout time.Duration
	// Seed controls disorder and fabric jitter.
	Seed int64
	// FT overrides the fault-tolerance timing knobs (zero: robust test
	// defaults).
	FT ft.Config
}

// WithDefaults fills the matrix defaults.
func (c ScenarioMatrixConfig) WithDefaults() ScenarioMatrixConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Iters <= 0 {
		c.Iters = 60
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10
	}
	if c.Nx <= 0 {
		c.Nx = 16
	}
	if c.Ny <= 0 {
		c.Ny = 8
	}
	if c.StepDelay <= 0 {
		c.StepDelay = 2 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 90 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.FT.ScanInterval == 0 && c.FT.PingTimeout == 0 && c.FT.CommTimeout == 0 {
		c.FT = ft.Config{
			ScanInterval: 5 * time.Millisecond,
			PingTimeout:  10 * time.Millisecond,
			CommTimeout:  10 * time.Millisecond,
			Threads:      4,
			StallLimit:   2 * time.Second,
		}
	}
	return c
}

// Specs builds the default scenario matrix. Fault iterations sit
// mid-checkpoint-interval (and away from checkpoint boundaries, so a
// victim's last act is computation, not a storage write).
func (c ScenarioMatrixConfig) Specs() []ScenarioSpec {
	cp := c.CheckpointEvery
	mid := 2*cp + cp/2 // e.g. 25 for the default interval 10
	at := func(kind cluster.FaultKind, logical int, iter int64) cluster.FaultEvent {
		return cluster.FaultEvent{Kind: kind, Logical: logical,
			Trigger: cluster.Trigger{Kind: cluster.AtIteration, Iter: iter}}
	}
	return []ScenarioSpec{
		{
			Scenario: cluster.Scenario{Name: "baseline"},
			Spares:   2, Expect: OutcomeRecovered,
		},
		{
			Scenario: cluster.Scenario{Name: "single exit(-1)",
				Events: []cluster.FaultEvent{at(cluster.ProcExit, 1, mid)}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			Scenario: cluster.Scenario{Name: "single kill -9",
				Events: []cluster.FaultEvent{at(cluster.ProcKill, 1, mid)}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			Scenario: cluster.Scenario{Name: "simultaneous double kill",
				Events: []cluster.FaultEvent{
					at(cluster.ProcKill, 1, mid),
					at(cluster.ProcKill, 2, mid)}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			// The victim is killed entering an allreduce, so every peer is
			// mid-collective when the death lands: the fault-aware
			// collective path must surface a prompt ErrConnBroken (or a
			// clean timeout→ack) and the epoch must restart — never a hung
			// reduction round. Set-up makes three collectives and every
			// iteration one, so ordinal 2·mid fires in iteration 2·mid−4
			// (46 of 60 at the default interval), between checkpoint
			// boundaries.
			Scenario: cluster.Scenario{Name: "kill mid-allreduce",
				Events: []cluster.FaultEvent{
					{Kind: cluster.ProcKill, Logical: 1,
						Trigger: cluster.Trigger{Kind: cluster.DuringCollective, Count: 2 * mid}}}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			Scenario: cluster.Scenario{Name: "kill during recovery epoch 1",
				Events: []cluster.FaultEvent{
					at(cluster.ProcExit, 1, mid),
					{Kind: cluster.ProcKill, Logical: 2,
						Trigger: cluster.Trigger{Kind: cluster.DuringRecovery, Epoch: 1}}}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			Scenario: cluster.Scenario{Name: "kill during async flush",
				Events: []cluster.FaultEvent{
					{Kind: cluster.ProcKill, Logical: 1,
						Trigger: cluster.Trigger{Kind: cluster.DuringFlush, Version: mid}}}},
			Spares: 2, Async: true, Expect: OutcomeRecovered,
		},
		{
			// The async writer under fire: a mid-iteration kill -9 with the
			// checkpoint flush off the application's path. The victim's
			// restore must read a sealed replica from the surviving stores
			// and the answer must stay bit-correct.
			Scenario: cluster.Scenario{Name: "kill -9, async checkpoints",
				Events: []cluster.FaultEvent{at(cluster.ProcKill, 1, mid)}},
			Spares: 2, Async: true, Expect: OutcomeRecovered,
		},
		{
			Scenario: cluster.Scenario{Name: "network drop",
				Events: []cluster.FaultEvent{at(cluster.NetworkDrop, 1, mid)}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			Scenario: cluster.Scenario{Name: "whole node down",
				Events: []cluster.FaultEvent{at(cluster.NodeDown, 1, mid)}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			// The victim node AND the node holding its neighbor replicas
			// both die: only the periodic PFS copy can restore the victim.
			Scenario: cluster.Scenario{Name: "node + replica node down",
				Events: []cluster.FaultEvent{
					at(cluster.NodeDown, 1, mid),
					at(cluster.NodeDown, 2, mid)}},
			Spares: 3, PFSEvery: 1, Expect: OutcomeRecovered, WantPFSRestore: true,
		},
		{
			// Group repair under fire, case 1: while logical 1's repair is
			// in flight, logical 3 (neither checkpoint-chain neighbor nor
			// 1-D halo partner of the victim) is killed. The fresh notice
			// restarts the epoch against the newer group view.
			Scenario: cluster.Scenario{Name: "kill during another rank's repair",
				Events: []cluster.FaultEvent{
					at(cluster.ProcExit, 1, mid),
					{Kind: cluster.ProcKill, Logical: 3,
						Trigger: cluster.Trigger{Kind: cluster.DuringRecovery, Epoch: 1}}}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			// Group repair under fire, case 2: the victim's checkpoint-
			// chain neighbor (logical 2, the rescue's restore source) is
			// killed during the repair. Everyone parked in the commit must
			// observe the fresher notice and restart rather than stall on
			// the dead member.
			Scenario: cluster.Scenario{Name: "kill a repair-set member",
				Events: []cluster.FaultEvent{
					at(cluster.ProcExit, 1, mid),
					{Kind: cluster.ProcKill, Logical: 2,
						Trigger: cluster.Trigger{Kind: cluster.DuringRecovery, Epoch: 1}}}},
			Spares: 2, Expect: OutcomeRecovered,
		},
		{
			// Hot shadow takeover: logical 1 carries a shadow (Replication
			// 2 covers logicals 0 and 1) continuously applying its mirror
			// stream. The kill must end on the reload ladder's top rung,
			// the live mirror — recovered with not a single iteration
			// recomputed anywhere in the group.
			Scenario: cluster.Scenario{Name: "kill shadowed primary",
				Events: []cluster.FaultEvent{at(cluster.ProcKill, 1, mid)}},
			Spares: 2, Async: true,
			Replication: 2, Expect: OutcomeRecovered, WantZeroRedo: true,
		},
		{
			// Three simultaneous kills against one spare (plus the FD
			// joining): restriction 1 — must abort crisply, never hang.
			Scenario: cluster.Scenario{Name: "spares exhausted",
				Events: []cluster.FaultEvent{
					at(cluster.ProcKill, 1, mid),
					at(cluster.ProcKill, 2, mid),
					at(cluster.ProcKill, 3, mid)}},
			Spares: 1, Expect: OutcomeUnrecoverable,
		},
	}
}

// ScenarioResult is one classified matrix row.
type ScenarioResult struct {
	Spec    ScenarioSpec
	Outcome ScenarioOutcome
	Wall    time.Duration
	// Recoveries is the total recovery-epoch count acknowledged by
	// detectors (primary or promoted).
	Recoveries int64
	// EpochRestarts counts recovery epochs restarted by a further failure
	// while in flight (the compound-fault path).
	EpochRestarts int64
	// DetectNS is the worst-case fault-detection time (OHF1): a worker
	// first stalling on the failure to the acknowledgment arriving.
	DetectNS int64
	// AckNS/RebuildNS/RestoreNS decompose recovery time by machine phase
	// (max across ranks — the critical path).
	AckNS, RebuildNS, RestoreNS int64
	// Restores by replica source, summed across ranks.
	RestoreLocal, RestoreNeighbor, RestoreRemote, RestorePFS int64
	// RedoIters is the total number of iterations re-executed after
	// recoveries, summed across ranks (zero on a clean hot-shadow
	// takeover).
	RedoIters int64
	// ShadowFailovers counts completed zero-restore takeovers, summed
	// across ranks.
	ShadowFailovers int64
	// ProbeNacks counts the successor pings of blocked workers that a dead
	// endpoint NACKed, summed across ranks. Zero on a network loss: the
	// fabric swallows what crosses a downed link, the ping times out, and
	// a timeout is not evidence.
	ProbeNacks int64
	// TTRNS is the scenario's time-to-recover: the per-rank sum of the
	// detect/ack/rebuild/restore phases, maximized over ranks — the
	// worst rank's total recovery time (cumulative over epochs when a
	// recovery restarts). Computed per rank, NOT as a sum of the
	// per-phase columns: those are independent per-phase maxima and can
	// mix phases from different ranks.
	TTRNS int64
	// Unfired lists scheduled events whose trigger never matched — a
	// scenario-specification bug.
	Unfired []cluster.FaultEvent
	// Invariants lists episode-level invariant violations (epoch
	// regression, agreement resolving to an unrestorable version,
	// non-monotone TTR decomposition) — empty on every healthy run,
	// whatever the classified outcome.
	Invariants []string
	// Detail carries the classified error text, when any.
	Detail string
}

// TTR is the scenario's time-to-recover (see TTRNS). Zero for
// failure-free rows — the matrix doubles as a recovery-latency
// regression harness through this column.
func (r ScenarioResult) TTR() time.Duration {
	return time.Duration(r.TTRNS)
}

// Ok reports whether the row met its spec.
func (r ScenarioResult) Ok() bool {
	if r.Outcome != r.Spec.Expect || len(r.Unfired) > 0 || len(r.Invariants) > 0 {
		return false
	}
	if r.Spec.WantPFSRestore && r.RestorePFS == 0 {
		return false
	}
	if r.Spec.WantZeroRedo && (r.RedoIters != 0 || r.ShadowFailovers == 0) {
		return false
	}
	return true
}

// ScenarioMatrixResult is the full matrix outcome.
type ScenarioMatrixResult struct {
	Cfg     ScenarioMatrixConfig
	RefEigs []float64
	Rows    []ScenarioResult
}

// Mismatches lists the rows that failed their spec.
func (r *ScenarioMatrixResult) Mismatches() []ScenarioResult {
	var out []ScenarioResult
	for _, row := range r.Rows {
		if !row.Ok() {
			out = append(out, row)
		}
	}
	return out
}

// scenarioClusterConfig builds the scheduler-tolerant testbed.
func scenarioClusterConfig(c ScenarioMatrixConfig, procs int, sc *cluster.Scenario) cluster.Config {
	return cluster.Config{
		Nodes:    procs,
		Scenario: sc,
		Gaspi: gaspi.Config{
			Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
			Seed:    c.Seed,
		},
		Storage: cluster.StorageModel{
			LocalPerByte: time.Nanosecond / 4,
			PFSPerByte:   4 * time.Nanosecond,
			PFSWidth:     2,
		},
	}
}

// Reference builds the testbed's matrix generator and the serial Lanczos
// reference eigenvalues every scenario run is classified against. Shared
// by the matrix and the chaos fuzzer so both judge against the same
// oracle (and the fuzzer amortizes the serial solve across episodes).
func (c ScenarioMatrixConfig) Reference() (matrix.Generator, []float64, error) {
	c = c.WithDefaults()
	gen := matrix.DefaultGraphene(c.Nx, c.Ny, uint64(c.Seed))
	ref, err := lanczos.SerialLowestEigs(gen, c.Iters, 2, uint64(c.Seed))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario reference: %w", err)
	}
	return gen, ref, nil
}

// RunScenarioMatrix executes every scenario and classifies its outcome
// against the serial Lanczos reference.
func RunScenarioMatrix(c ScenarioMatrixConfig) (*ScenarioMatrixResult, error) {
	c = c.WithDefaults()
	gen, ref, err := c.Reference()
	if err != nil {
		return nil, fmt.Errorf("scenario matrix: %w", err)
	}
	res := &ScenarioMatrixResult{Cfg: c, RefEigs: ref}
	for _, spec := range c.Specs() {
		res.Rows = append(res.Rows, RunScenario(c, gen, spec, ref[0]))
	}
	return res, nil
}

// RunScenario executes ONE scenario spec on a fresh simulated cluster and
// classifies the run: the shared harness under both the hand-written
// matrix and the chaos fuzzer's randomized episodes. The returned row
// carries the classified outcome, the recovery-phase decomposition, the
// unfired-trigger list and any episode-level invariant violations.
func RunScenario(c ScenarioMatrixConfig, gen matrix.Generator, spec ScenarioSpec, wantEig float64) ScenarioResult {
	sc := spec.Scenario // copy; the injector consumes events
	cpMode := checkpoint.Sync
	if spec.Async {
		cpMode = checkpoint.Async
	}
	ftCfg := c.FT
	if spec.Replication > 0 {
		ftCfg.Replication = map[string]int{"state": spec.Replication}
	}
	job, err := StartJob(JobSpec{
		Cluster: scenarioClusterConfig(c, 1+spec.Spares+c.Workers, &sc),
		Core: core.Config{
			Spares:          spec.Spares,
			FT:              ftCfg,
			EnableHC:        true,
			EnableCP:        true,
			CheckpointEvery: c.CheckpointEvery,
			CP: checkpoint.Config{
				CheckpointMode: cpMode,
				PFSEvery:       spec.PFSEvery,
			},
		},
		App: apps.LanczosConfig{
			Gen:       gen,
			Opts:      lanczos.Options{MaxIters: c.Iters, NumEigs: 2, CheckEvery: int(c.CheckpointEvery), Seed: uint64(c.Seed)},
			StepDelay: c.StepDelay,
		},
		Timeout: c.Timeout,
		WantEig: &wantEig,
	})
	if err != nil {
		return ScenarioResult{Spec: spec, Outcome: OutcomeFailed, Detail: err.Error()}
	}
	res := job.Wait()
	out := ScenarioResult{Spec: spec, Outcome: res.Outcome, Wall: res.Wall, Unfired: res.Unfired, Detail: res.Detail}
	// The episode-level invariants are swept on every exit path, once the
	// outcome is classified (the TTR checks are outcome-dependent).
	out.Invariants = scenarioInvariants(res.Recorders, out.Outcome, res.Victims)
	if out.Outcome == OutcomeHung {
		return out
	}
	sum := res.Sum
	out.Recoveries = sum.SumCounter[trace.KFDRecoveries]
	out.EpochRestarts = sum.SumCounter[ft.CounterEpochRestarts]
	out.DetectNS = sum.MaxCounter[ft.CounterDetectNS]
	out.AckNS = sum.MaxCounter[ft.CounterAckNS]
	out.RebuildNS = sum.MaxCounter[ft.CounterRebuildNS]
	out.RestoreNS = sum.MaxCounter[ft.CounterRestoreNS]
	out.RedoIters = sum.SumCounter[trace.KCoreRedoIters]
	out.ShadowFailovers = sum.SumCounter[trace.KFTShadowFailovers]
	out.ProbeNacks = sum.SumCounter[trace.KFTProbeNacks]
	for _, r := range res.Recorders {
		t := r.Counter(ft.CounterDetectNS) + r.Counter(ft.CounterAckNS) +
			r.Counter(ft.CounterRebuildNS) + r.Counter(ft.CounterRestoreNS)
		if t > out.TTRNS {
			out.TTRNS = t
		}
	}
	out.RestoreLocal = sum.SumCounter[trace.KCoreRestoreFromLocal]
	out.RestoreNeighbor = sum.SumCounter[trace.KCoreRestoreFromNeighbor]
	out.RestoreRemote = sum.SumCounter[trace.KCoreRestoreFromRemote]
	out.RestorePFS = sum.SumCounter[trace.KCoreRestoreFromPFS]
	return out
}

// Render formats the matrix as a table plus the recovery-phase
// decomposition.
func (r *ScenarioMatrixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario matrix — %d workers, %d iters, CP every %d (reference eig0 %.9f)\n\n",
		r.Cfg.Workers, r.Cfg.Iters, r.Cfg.CheckpointEvery, r.RefEigs[0])
	ms := func(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1e6) }
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		status := "ok"
		if !row.Ok() {
			status = "SPEC-MISMATCH"
			if len(row.Unfired) > 0 {
				status = fmt.Sprintf("UNFIRED:%d", len(row.Unfired))
			}
			if len(row.Invariants) > 0 {
				status = fmt.Sprintf("INVARIANT:%d", len(row.Invariants))
			}
		}
		src := fmt.Sprintf("%d/%d/%d/%d",
			row.RestoreLocal, row.RestoreNeighbor, row.RestoreRemote, row.RestorePFS)
		rows = append(rows, []string{
			row.Spec.Scenario.Name,
			row.Outcome.String(),
			status,
			fmt.Sprintf("%.2f", row.Wall.Seconds()),
			fmt.Sprintf("%d", row.Recoveries),
			fmt.Sprintf("%d", row.EpochRestarts),
			ms(row.DetectNS), ms(row.AckNS), ms(row.RebuildNS), ms(row.RestoreNS),
			ms(int64(row.TTR())),
			src,
			row.Detail,
		})
	}
	b.WriteString(trace.Table([]string{
		"scenario", "outcome", "spec", "wall[s]", "recov", "restart",
		"detect[ms]", "ack[ms]", "rebuild[ms]", "restore[ms]", "ttr[ms]", "src l/n/r/p", "detail"},
		rows))
	return b.String()
}

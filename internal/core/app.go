// Package core is the fault-tolerant application framework that ties the
// pieces of the paper together (the application flow of Figure 3): role
// assignment (one dedicated fault detector, pre-allocated idle spares,
// workers), the iterate–checkpoint loop, failure acknowledgment handling,
// recovery (identity takeover, group reconstruction, communication
// rebuild), and data re-initialization from the last globally consistent
// neighbor-level checkpoint.
//
// Applications implement the App interface; the framework drives them.
// The Lanczos eigensolver of the paper and the heat-equation example are
// both Apps, demonstrating the paper's claim that "the concept can be
// applied to other applications".
package core

import (
	"fmt"
	"runtime/metrics"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/spmvm"
	"repro/internal/trace"
)

// App is a checkpointable iterative application driven by the framework.
//
// Collective alignment contract: Init(restore=false) may communicate (it
// runs pre-processing among the initial workers); Init(restore=true) runs
// on a rescue process after a recovery and must NOT communicate (it loads
// the pre-processing state from the failed process's checkpoint instead —
// the paper's trick to avoid repeating pre-processing). Rebuild runs on
// every group member after Init and after every recovery and may
// communicate; it recreates the communication structures (halo segments).
//
// Init(restore=true) is on every survivor's recovery path — the group
// commit waits for the rescue — so it may return with rank-local,
// non-communicating work still running on a goroutine the App owns (the
// Lanczos and heat apps regenerate their row block that way). Rebuild
// and Restore must need only what Init finished synchronously;
// the rest must be complete before the first Step multiplies, and is the
// App's to wait for there. It must be joined by Close, which the framework
// calls on every way out of the worker flow, so that nothing of it outlives
// the process; a failure of it is the first Step's error.
//
// Optional warm-up, found by interface assertion like
// LiveIteration and Close — App itself does not grow:
//
//	Prewarm(ctx *Ctx, logical int) error
//
// A hot shadow calls it once, while idle, for the logical rank it mirrors
// (after that rank's first mirror frame, see shadowMain), so that whatever
// Init(restore=true) would build for that rank — everything that depends
// on the rank but not on the failure — already exists when the rank fails.
// The rules are Init(restore=true)'s, tightened: Prewarm must NOT
// communicate, and cannot — the process has no group, no identity and no
// worker yet, so ctx.Comm and ctx.Worker are nil; ctx.CP is a checkpoint
// library good for fetching, ctx.Logical is logical. It runs on a goroutine
// of its own, concurrent with nothing of the App (no other method is called
// until it has returned) and with nothing of the framework but the
// shadow's mirror applier. The App it ran on is the one the process then
// runs: Init(restore=true) follows exactly once, after activation, possibly
// for ANOTHER logical rank than the one warmed up (the detector spent the
// shadow as a plain rescue) and also after a Prewarm that returned an
// error (counted, not fatal) — it must check what it holds and load what
// it lacks. Unlike Init(restore=true), Prewarm leaves nothing running when
// it returns: being warm means the first Step after a takeover has nothing
// to wait for. An App without the method is simply never warmed up.
type App interface {
	// Init prepares the application: pre-processing on a fresh start, or
	// loading the plan checkpoint on a rescue process (restore=true).
	Init(ctx *Ctx, restore bool) error
	// Rebuild (re)creates communication structures on the current worker
	// group. Called once after Init and again after every recovery.
	Rebuild(ctx *Ctx) error
	// Checkpoint serializes the application state at the current iteration.
	// The payload may be a buffer the App reuses: it need only stay valid
	// until the next Checkpoint call. Every consumer frames the whole
	// payload with checkpoint.EncodeFrame, which copies it before it returns
	// — checkpoint.Library.Write into a half of the writer's double buffer
	// under either commit discipline, a shadowed primary into its push
	// buffer — so the framework never holds a payload across iterations.
	Checkpoint(ctx *Ctx) ([]byte, error)
	// Restore resets the application state to a checkpoint taken at
	// iteration iter. A nil payload resets to the initial state (iter 0).
	Restore(ctx *Ctx, payload []byte, iter int64) error
	// Step executes iteration iter (computation + communication through
	// ctx.Comm).
	Step(ctx *Ctx, iter int64) error
	// Finished reports whether the computation is complete after iter
	// completed iterations.
	Finished(iter int64) bool
}

// Ctx is the per-process context handed to the App.
type Ctx struct {
	// Proc is the GASPI process.
	Proc *gaspi.Proc
	// Comm is the fault-tolerance-aware communication interface (also the
	// ft.Worker; identical object, two views).
	Comm spmvm.Comm
	// Worker is the FT wrapper (nil only before worker setup).
	Worker *ft.Worker
	// CP is the neighbor-level checkpoint library (nil when checkpointing
	// is disabled).
	CP *checkpoint.Library
	// Cluster is the hosting cluster process context.
	Cluster *cluster.ProcCtx
	// Logical is the current logical worker rank.
	Logical int
	// Layout is the role layout.
	Layout ft.Layout
	// Rec is the overhead recorder.
	Rec *trace.Recorder
	// Cfg is the framework configuration.
	Cfg Config

	// gcCycles is recoverAndReload's runtime/metrics sample, kept so that
	// reading it allocates nothing.
	gcCycles [1]metrics.Sample
}

// Config parameterizes the framework.
type Config struct {
	// Spares is the number of idle spare processes (the FD is extra).
	Spares int
	// FT holds the fault-tolerance timing knobs.
	FT ft.Config
	// EnableHC runs the health-check machinery (FD process scanning and
	// worker-side acknowledgment checks). Disabled for the baseline
	// "w/o HC" scenarios.
	EnableHC bool
	// EnableCP writes periodic application checkpoints.
	EnableCP bool
	// FDRedundancy runs a standby detector on the highest spare that takes
	// over when the FD process itself fails — the paper's future-work
	// extension lifting restriction 2 for a single FD failure.
	FDRedundancy bool
	// CheckpointEvery is the checkpoint interval in iterations (the paper
	// uses 500 of 3500).
	CheckpointEvery int64
	// CP configures the checkpoint library. CP.CheckpointMode selects where
	// the local commit runs: inside Write (checkpoint.Sync, the paper's
	// library; default) or on the library's writer goroutine
	// (checkpoint.Async). Under both, the writer replicates in the
	// background, and neighbor replicas and hot-shadow mirror frames travel
	// over the GASPI checkpoint stream (ft.CPStream) on a dedicated queue.
	CP checkpoint.Config
	// PlanName is the pre-processing checkpoint name (default "plan").
	PlanName string
}

// stateName is the checkpoint family name of the solver state.
const stateName = "state"

func (c Config) withDefaults() Config {
	if c.PlanName == "" {
		c.PlanName = "plan"
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50
	}
	return c
}

// Validate reports a configuration a job on the cluster ccfg cannot run as
// asked: a role layout without a worker, or hot shadows (FT.Replication)
// without the health check that activates them or the checkpoint stream
// that feeds them. experiment.StartJob refuses such a job. Launch refuses
// only the layout: given shadows without CP or HC, the spares idle as
// ordinary rescues (the benchmark's counterfactual runs switch HC off on
// shadowed workloads).
func (c Config) Validate(ccfg cluster.Config) error {
	if err := c.Layout(ccfg.Nodes * max(ccfg.ProcsPerNode, 1)).Validate(); err != nil {
		return err
	}
	for fam, d := range c.FT.Replication {
		switch {
		case d <= 0:
		case !c.EnableCP:
			return fmt.Errorf("core: replication of %q needs EnableCP: shadows are fed by the checkpoint stream", fam)
		case !c.EnableHC:
			return fmt.Errorf("core: replication of %q needs EnableHC: shadows are activated by the detector", fam)
		}
	}
	return nil
}

// Layout derives the ft.Layout for a given total process count. Its shadow
// count is the widest degree in FT.Replication, within the spares left
// once the FD-redundancy standby (the highest spare, never a shadow) is
// set aside — one number that detector, workers and spares all read.
func (c Config) Layout(procs int) ft.Layout {
	shadows := 0
	for _, d := range c.FT.Replication {
		shadows = max(shadows, d)
	}
	avail := c.Spares
	if c.FDRedundancy {
		avail--
	}
	return ft.Layout{Procs: procs, Spares: c.Spares, Shadows: max(min(shadows, avail), 0)}
}

// PlanVersion is the version under which the pre-processing checkpoint is
// stored (written once, after pre-processing, as in the paper).
const PlanVersion int64 = 0

// noCheckpoint is the version allreduced when a rank has no usable
// checkpoint.
const noCheckpoint int64 = -1

// CounterAgreementViolations counts recovery version agreements that
// confirmed a version some member could not actually reassemble — a
// protocol invariant (the confirm round is a min-reduce over per-member
// fetch success, so a violation means the reduce itself lied). Must stay
// zero on every rank in every run; the chaos fuzzer asserts it per
// episode.
const CounterAgreementViolations = trace.KCoreAgreementViolations

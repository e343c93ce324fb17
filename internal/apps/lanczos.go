// Package apps contains the framework applications: the paper's
// fault-tolerant Lanczos eigensolver (Section V) and a 1-D heat-equation
// solver showing that the same fault-tolerance machinery carries over to a
// different application ("The concept can be applied to other applications
// ... as well").
package apps

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lanczos"
	"repro/internal/matrix"
)

// LanczosConfig parameterizes the Lanczos application.
type LanczosConfig struct {
	// Gen generates the matrix (deterministically, on the fly, on every
	// process — no file system involved, as in the paper).
	Gen matrix.Generator
	// Opts are the eigensolver options.
	Opts lanczos.Options
	// Threads shards the compute kernels per process (the paper runs 12
	// OpenMP threads per process).
	Threads int
	// StepDelay adds a fixed sleep per iteration: the stand-in for the
	// unscaled per-iteration compute time of the paper's 1.2e8-row matrix
	// (≈400 ms/iteration on 256 nodes). The experiment harness sets it to
	// that value divided by the time-scale factor so the redo-work /
	// detection / re-initialization proportions of Figure 4 are
	// reproduced faithfully.
	StepDelay time.Duration
}

// Lanczos is the paper's application as a core.App: distributed Lanczos
// with communication-plan checkpointing after pre-processing and
// state checkpoints holding two Lanczos vectors plus α and β.
type Lanczos struct {
	rowBlock // Init, Prewarm, Close
	cfg      LanczosConfig
	solver   *lanczos.Solver
	live     bool // a Restore has installed solver state (see LiveIteration)
}

var _ core.App = (*Lanczos)(nil)

// NewLanczos builds the application; pass as the core.App factory.
func NewLanczos(cfg LanczosConfig) *Lanczos {
	return &Lanczos{rowBlock: rowBlock{gen: cfg.Gen, threads: cfg.Threads}, cfg: cfg}
}

// Solver exposes the eigensolver (for result collection after the run).
func (a *Lanczos) Solver() *lanczos.Solver { return a.solver }

// Rebuild implements core.App: re-binds the halo engine to the current
// worker group and points the solver at it. Collective.
func (a *Lanczos) Rebuild(ctx *core.Ctx) error {
	eng, err := a.rebind(ctx)
	if err != nil {
		return err
	}
	if a.solver == nil {
		a.solver = lanczos.NewShell(ctx.Comm, eng, a.cfg.Opts)
	} else {
		a.solver.SetEngine(eng)
	}
	return nil
}

// Checkpoint implements core.App. The payload is the solver's reused
// staging buffer (lanczos.Solver.CheckpointPayload).
func (a *Lanczos) Checkpoint(*core.Ctx) ([]byte, error) {
	return a.solver.CheckpointPayload(), nil
}

// Restore implements core.App.
func (a *Lanczos) Restore(ctx *core.Ctx, payload []byte, iter int64) error {
	a.live = false
	if payload == nil {
		if err := a.solver.ResetStart(); err != nil {
			return err
		}
	} else {
		if err := a.solver.Restore(payload); err != nil {
			return err
		}
		if a.solver.It != iter {
			return fmt.Errorf("apps: checkpoint iteration %d under version %d", a.solver.It, iter)
		}
	}
	a.live = true
	return nil
}

// LiveIteration reports the solver's current durable iteration — the
// candidate a survivor contributes to the hot-shadow failover agreement.
// The solver mutates durable state only after its last collective, so a
// step aborted by a peer's failure leaves It exactly at the iteration to
// resume from. Valid only once a Restore has installed a state: the shell
// Rebuild creates also reads iteration 0, and a rescue without a mirror —
// or a survivor whose initial Restore the failure cut short — offering
// that as live state would win an agreement at step 0 and resume on
// vectors nobody initialized.
func (a *Lanczos) LiveIteration(*core.Ctx) (int64, bool) {
	if !a.live {
		return 0, false
	}
	return a.solver.It, true
}

// Step implements core.App.
func (a *Lanczos) Step(ctx *core.Ctx, iter int64) error {
	if a.solver.It != iter {
		return fmt.Errorf("apps: solver at iteration %d, framework at %d", a.solver.It, iter)
	}
	if a.cfg.StepDelay > 0 {
		time.Sleep(a.cfg.StepDelay) // stand-in for the unscaled compute time
	}
	return a.solver.Step()
}

// Finished implements core.App.
func (a *Lanczos) Finished(iter int64) bool {
	if a.solver == nil {
		return false
	}
	return a.solver.Finished()
}

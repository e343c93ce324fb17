package apps

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gaspi"
	"repro/internal/matrix"
	"repro/internal/spmvm"
	"repro/internal/trace"
)

// HaloSeg is the segment id used for the spMVM halo exchange (the notice
// board occupies segment 1).
const HaloSeg gaspi.SegmentID = 2

// rowBlock is what both applications derive from their row block of the
// matrix: the communication plan and the local/remote split, kept for the
// life of the process, and the engine currently bound to the worker group.
// Embedded in an App it supplies Init and the hooks the framework finds by
// interface assertion (Prewarm, Close).
type rowBlock struct {
	gen     matrix.Generator
	threads int
	split   *spmvm.Split
	eng     *spmvm.Engine

	// The rescue loader's goroutine (see load): loading counts it while it
	// runs, loadErr is its result, read after loading.Wait.
	loading sync.WaitGroup
	loadErr error
}

// Init implements core.App. On a fresh start it generates the local matrix
// block and runs the pre-processing stage, then checkpoints the resulting
// communication plan once ("each process writes a checkpoint after the
// pre-processing stage"). On a rescue (restore=true) it adopts the block a
// Prewarm already loaded for this rank, or starts loading it now: the plan
// from the failed process's checkpoint — resuming communication without
// repeating pre-processing — and the matrix block regenerated locally,
// behind the recovery this rank then joins without waiting for it.
func (b *rowBlock) Init(ctx *core.Ctx, restore bool) error {
	if restore {
		if b.split != nil && b.split.Plan().Logical == ctx.Logical {
			return nil
		}
		return b.load(ctx, ctx.Logical)
	}
	lo, hi := matrix.BlockRange(b.gen.Dim(), ctx.Comm.NumWorkers(), ctx.Logical)
	blk := spmvm.Generate(b.gen, lo, hi)
	plan, err := spmvm.Preprocess(ctx.Comm, blk)
	if err != nil {
		return err
	}
	if b.split, err = spmvm.NewSplit(plan, blk); err != nil {
		return err
	}
	if ctx.CP != nil {
		if err := ctx.CP.Write(ctx.Cfg.PlanName, ctx.Logical, core.PlanVersion, plan.Encode()); err != nil {
			return err
		}
		// The plan is written exactly once and every rescue depends on it:
		// wait for replication (in async mode the write is otherwise only
		// staged) before any iteration can fail.
		ctx.CP.WaitIdle()
	}
	return nil
}

// load is the one rescue loader: it makes this process hold logical's plan
// and split without communicating. Its head is synchronous — fetch, decode
// and validate the plan, lay the halo segment out from it — and leaves
// everything Rebuild and Restore read. The matrix half, generating the
// block and cutting it, runs on a goroutine the block owns: Prewarm,
// the next load and Close wait for it to exit, and the first multiply for
// its cut (spmvm.Engine.SpMV); nothing earlier on a rescue's path does.
// A block held for another rank is dropped first.
func (b *rowBlock) load(ctx *core.Ctx, logical int) error {
	b.loading.Wait() // a load still running is for the block this one replaces
	b.split, b.loadErr = nil, nil
	if ctx.CP == nil {
		return errors.New("apps: recovery requires checkpointing enabled")
	}
	// FetchFrom, not Fetch: the plan restore's provenance feeds the same
	// core.restore_from_* counters as the state restore, so the traced
	// source can never disagree with the replica actually used.
	blob, src, err := ctx.CP.FetchFrom(ctx.Cfg.PlanName, logical, core.PlanVersion)
	if err != nil {
		return fmt.Errorf("apps: plan checkpoint: %w", err)
	}
	ctx.Rec.Inc(trace.RestoreFromKey(src.String()), 1)
	plan, err := spmvm.DecodePlan(blob)
	if err != nil {
		return err
	}
	// The blob comes off a store: it must be the plan of the identity being
	// adopted, over the block distribution this job uses, before its row
	// range reaches the generator (which panics on a bad one).
	workers := ctx.Layout.Workers()
	lo, hi := matrix.BlockRange(b.gen.Dim(), workers, logical)
	if plan.Logical != logical || plan.Workers != workers || plan.Lo != lo || plan.Hi != hi {
		return fmt.Errorf("apps: plan checkpoint is rank %d of %d, rows [%d,%d); adopting rank %d of %d, rows [%d,%d)",
			plan.Logical, plan.Workers, plan.Lo, plan.Hi, logical, workers, lo, hi)
	}
	split := spmvm.NewPendingSplit(plan)
	b.split = split
	rec := ctx.Rec
	b.loading.Add(1)
	go func() {
		defer b.loading.Done()
		t0 := time.Now()
		b.loadErr = split.Cut(spmvm.Generate(b.gen, lo, hi))
		rec.Inc(trace.KAppsBlockBuildNS, int64(time.Since(t0)))
		rec.Inc(trace.KAppsBlockLoads, 1)
	}()
	return nil
}

// Prewarm implements the framework's optional warm-up hook: the rescue
// loader, joined. A hot shadow runs it while idle, so that
// Init(restore=true) has nothing left to do and the takeover's first
// multiply nothing to wait for.
func (b *rowBlock) Prewarm(ctx *core.Ctx, logical int) error {
	if err := b.load(ctx, logical); err != nil {
		return err
	}
	b.loading.Wait()
	if b.loadErr != nil {
		b.split = nil
	}
	return b.loadErr
}

// rebind is the shared part of App.Rebuild: it (re)creates the halo engine
// on the current worker group from the kept split. Collective (engine
// binding barriers).
func (b *rowBlock) rebind(ctx *core.Ctx) (*spmvm.Engine, error) {
	if b.eng != nil {
		b.eng.Close() // release the old engine's worker pool (idempotent)
		b.eng = nil
	}
	// Delete-if-present rather than delete-if-engine: a bind aborted by a
	// mid-rebuild death rolls its own segment back, so either state
	// (segment present or absent) is legal here on a retry.
	if _, err := ctx.Proc.SegmentSize(HaloSeg); err == nil {
		if err := ctx.Proc.SegmentDelete(HaloSeg); err != nil {
			return nil, err
		}
	}
	eng, err := b.split.Bind(ctx.Comm, HaloSeg)
	if err != nil {
		return nil, err
	}
	if b.threads > 1 {
		eng.Threads = b.threads
	}
	eng.Rec = ctx.Rec
	b.eng = eng
	return eng, nil
}

// Close joins a load still in flight and releases the engine's worker
// pool; the framework calls it when the worker flow ends, process death
// included (rebind already closes superseded engines).
func (b *rowBlock) Close() {
	b.loading.Wait() // its error is the first Step's to report
	if b.eng != nil {
		b.eng.Close()
	}
}

package core

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/trace"
)

// Job is a running fault-tolerant application on a simulated cluster.
type Job struct {
	// Cluster is the underlying testbed (for fault injection).
	Cluster *cluster.Cluster
	// Recorders holds one overhead recorder per physical rank.
	Recorders []*trace.Recorder
	// Layout is the role layout.
	Layout ft.Layout
}

// Launch starts the fault-tolerant application: a cluster per ccfg, with
// roles assigned per cfg and every worker running the app built by newApp.
func Launch(ccfg cluster.Config, cfg Config, newApp func() App) *Job {
	cfg = cfg.withDefaults()
	procs := ccfg.Nodes * max(ccfg.ProcsPerNode, 1)
	lay := cfg.Layout(procs)
	if err := lay.Validate(); err != nil {
		panic(err)
	}
	recs := make([]*trace.Recorder, procs)
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	cl := cluster.New(ccfg, func(ctx *cluster.ProcCtx) error {
		return Main(ctx, cfg, lay, newApp, recs[ctx.Rank()])
	})
	return &Job{Cluster: cl, Recorders: recs, Layout: lay}
}

// Wait waits for completion and returns per-rank results.
func (j *Job) Wait() []gaspi.Result { return j.Cluster.Wait() }

// WaitTimeout is Wait with a deadline.
func (j *Job) WaitTimeout(d time.Duration) ([]gaspi.Result, bool) {
	return j.Cluster.WaitTimeout(d)
}

// Close tears the job down.
func (j *Job) Close() { j.Cluster.Close() }

// Main is the per-process entry point implementing the flow chart of
// Figure 3: processes are categorized into working and idle; one idle
// process acts as the FD; workers compute, checkpoint, and on failure
// acknowledgment reconstruct the group and restart from the last
// consistent checkpoint.
func Main(cctx *cluster.ProcCtx, cfg Config, lay ft.Layout, newApp func() App, rec *trace.Recorder) error {
	cfg = cfg.withDefaults()
	p := cctx.Proc
	if err := ft.CreateBoard(p, lay); err != nil {
		return err
	}
	// Every board must exist before anybody can be told about a failure.
	// The FD acknowledges within a fraction of a millisecond of a death now
	// (a survivor's nudge starts the scan, the board write wakes the
	// blocked ranks), and a spare whose goroutine had not yet been
	// scheduled to create its board would lose the write that activates
	// it — the survivors then wait in the group commit for a rescue that
	// never comes. The communication timeouts used to hide this start-up
	// race behind ten milliseconds of sleeping.
	if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
		return fmt.Errorf("core: start-up barrier: %w", err)
	}

	switch lay.RoleOf(p.Rank()) {
	case ft.RoleDetector:
		return detectorMain(cctx, cfg, lay, newApp, rec)
	case ft.RoleSpare:
		return spareMain(cctx, cfg, lay, newApp, rec)
	default:
		return workerMain(cctx, cfg, lay, newApp, rec, nil, int(p.Rank())-1-lay.Spares, nil)
	}
}

// detectorMain runs the FD process; without health checking it only waits
// for the shutdown signal (the reserved node sits idle, as in the paper's
// baseline runs where spare nodes are reserved but unused).
func detectorMain(cctx *cluster.ProcCtx, cfg Config, lay ft.Layout, newApp func() App, rec *trace.Recorder) error {
	p := cctx.Proc
	if !cfg.EnableHC {
		_, err := p.NotifyWaitsome(ft.SegBoard, ft.NotifShutdown, 1, gaspi.Block)
		return err
	}
	return runDetector(cctx, cfg, lay, newApp, rec, ft.NewDetector(p, lay, cfg.FT, rec))
}

// runDetector drives a detector (primary or promoted standby) and handles
// its terminal outcomes, including the FD-joins-the-workers path.
func runDetector(cctx *cluster.ProcCtx, cfg Config, lay ft.Layout, newApp func() App, rec *trace.Recorder, d *ft.Detector) error {
	p := cctx.Proc
	outcome, notice, err := d.Run()
	if err != nil {
		return err
	}
	switch outcome {
	case ft.DetectorShutdown:
		return nil
	case ft.DetectorUnrecoverable:
		return ft.ErrUnrecoverable
	default: // DetectorJoinWorkers
		logical, ok := notice.RescueOf(p.Rank())
		if !ok {
			return errors.New("core: FD joined the workers without an identity")
		}
		return workerMain(cctx, cfg, lay, newApp, rec, notice, logical, nil)
	}
}

// spareMain waits idle until the FD activates this spare as a rescue (or
// the application completes). With FDRedundancy enabled, the highest spare
// additionally stands by for the FD itself and takes over detection when
// the FD dies — the paper's future-work redundancy approach. With a
// replication policy, the lowest spares instead run as hot shadows of the
// first logical ranks, continuously applying their primary's mirrored
// checkpoint stream into live memory so a takeover needs no restore phase.
func spareMain(cctx *cluster.ProcCtx, cfg Config, lay ft.Layout, newApp func() App, rec *trace.Recorder) error {
	p := cctx.Proc
	if cfg.EnableHC && cfg.FDRedundancy && p.Rank() == lay.StandbyRank() {
		outcome, d, notice, logical, err := ft.WaitStandby(p, lay, cfg.FT, rec)
		if err != nil {
			return err
		}
		switch outcome {
		case ft.StandbyShutdown:
			return nil
		case ft.StandbyPromoted:
			return runDetector(cctx, cfg, lay, newApp, rec, d)
		default: // StandbyActivated: proceed as an ordinary rescue
			return workerMain(cctx, cfg, lay, newApp, rec, notice, logical, nil)
		}
	}
	// Hot shadow: spare rank 1+L mirrors logical L over the checkpoint
	// stream. Without CP or HC (a Config Validate refuses, which only a
	// direct Launch can bring here) the spare idles like any other.
	if cfg.EnableHC && cfg.EnableCP && int(p.Rank()) <= lay.Shadows {
		return shadowMain(cctx, cfg, lay, newApp, rec)
	}
	notice, logical, shutdown, err := ft.WaitActivation(p, lay, cfg.FT)
	if err != nil {
		return err
	}
	if shutdown {
		return nil
	}
	return workerMain(cctx, cfg, lay, newApp, rec, notice, logical, nil)
}

// shadowMain is the hot-shadow idle loop: receive the shadowed primary's
// frames over the checkpoint stream and keep the newest intact one, so that
// on activation for that primary its version is this rank's candidate in
// reload's agreement, and the group resumes at the mirrored step with no
// checkpoint restore when everyone agrees. Activated for any OTHER logical
// (the detector consumed this shadow as a plain spare), the frame is
// discarded and the cold rescue path runs unchanged.
//
// The first applied frame also starts the warm-up of the primary's
// application structures (see prewarm): it proves the primary is iterating,
// hence past Init, hence that the plan checkpoint every rescue loads is
// replicated — and that job set-up, which the warm-up's CPU time should
// stay out of, is over. An activation joins a warm-up still running
// instead of starting a second load next to it.
func shadowMain(cctx *cluster.ProcCtx, cfg Config, lay ft.Layout, newApp func() App, rec *trace.Recorder) error {
	p := cctx.Proc
	primary := int(p.Rank()) - 1 // inverse of Layout.ShadowOf
	cps, err := ft.NewCPStream(p, cctx.Cluster.RanksOf(cctx.NodeID), ft.DefaultCPStreamBytes, 0, cfg.FT.CommTimeout)
	if err != nil {
		return err
	}
	inj := cctx.Cluster.Injector()
	warm := startPrewarm(cctx, cfg, lay, newApp, rec, primary)
	defer warm.settle() // process death unwinds by panic, past the call below
	// The takeover candidate. Only apply writes it, on the applier
	// goroutine until cps.Stop has waited for Serve to exit and on this one
	// in DrainPending, so it is read below without a lock.
	kept := failoverState{version: noCheckpoint}
	apply := func(key string, blob []byte) error {
		// A torn or corrupt frame is acked anyway (dropping the ack would
		// stall the primary's compute loop for the full push timeout); it
		// leaves no candidate until the next intact frame.
		var ok bool
		if kept, ok = keepFrame(blob); !ok {
			rec.Inc(trace.KFTShadowTornTails, 1)
			return nil
		}
		rec.Inc(trace.KFTShadowAppliedFrames, 1)
		warm.Trigger()
		if inj != nil {
			inj.NoteShadowFrame(p.Rank(), primary, kept.version)
		}
		return nil
	}
	go cps.Serve(apply)
	notice, logical, shutdown, werr := ft.WaitActivation(p, lay, cfg.FT)
	cps.Stop()
	warm.settle()
	if werr != nil {
		return werr
	}
	if shutdown {
		return nil
	}
	// The primary may have died between committing its last frame and this
	// shadow's applier serving it; fold that tail in before judging the
	// candidate, then free the stream segment for the worker path's own
	// stream.
	cps.DrainPending(apply)
	_ = p.SegmentDelete(ft.SegCP)
	var fo *failoverState
	if logical == primary {
		// No frame, or a torn last one, still makes this the rescue that was
		// to hold one: its candidate is noCheckpoint, and the fallback counts.
		fo = &kept
	}
	if warm.app != nil {
		// The App the warm-up built is this process's App — one newApp call
		// per process — whether or not what it holds is for this rank:
		// Init(restore=true) keeps a block loaded for its own logical and
		// replaces any other.
		newApp = func() App { return warm.app }
	}
	if warm.warmed {
		if logical == primary {
			rec.Inc(trace.KCorePrewarmHits, 1)
		} else {
			rec.Inc(trace.KCorePrewarmDiscarded, 1)
		}
	}
	return workerMain(cctx, cfg, lay, newApp, rec, notice, logical, fo)
}

// workerMain is the flow of every process that computes as logical rank
// logical. An initial worker (activation nil) commits the initial group; a
// rescue adopts the identity its activation names, a hot shadow with fo,
// its primary's last frame, in hand. Both then enter one loop, whose top is
// the only recovery handler: a rescue's pending recovery, a failure
// acknowledged during the fresh start's collective set-up and one
// acknowledged inside a step all run recoverAndReload there.
//
// A worker failing with a hard (non-recoverable) error — a death in the
// initial commit included — broadcasts the shutdown signal before
// returning: the job is lost, and without the broadcast the FD and the idle
// spares would wait forever — the role a batch system's job teardown plays
// on a real cluster.
func workerMain(cctx *cluster.ProcCtx, cfg Config, lay ft.Layout, newApp func() App, rec *trace.Recorder, activation *ft.Notice, logical int, fo *failoverState) (err error) {
	p := cctx.Proc
	defer func() {
		if err != nil {
			gaspi.Protect(func() { _ = ft.SignalShutdown(p, lay) })
		}
	}()
	var w *ft.Worker
	if activation == nil {
		w = ft.NewWorker(p, lay, cfg.FT, logical, cfg.EnableHC, rec)
		if err := w.CommitInitialGroup(); err != nil {
			return fmt.Errorf("core: initial group commit (logical %d): %w", logical, err)
		}
	} else {
		w = ft.AdoptIdentity(p, lay, cfg.FT, activation, logical, rec)
	}
	app := newApp()
	// Apps owning background resources (the spMVM engine's worker pool)
	// expose Close; without this the last engine of every rank would leak
	// its pool goroutines in long-lived multi-job processes (experiment
	// sweeps, scenario matrices). Rebuild closes superseded engines; this
	// closes the final one on every exit path.
	if closer, ok := app.(interface{ Close() }); ok {
		defer closer.Close()
	}
	ctx := &Ctx{
		Proc:    p,
		Comm:    w,
		Worker:  w,
		Cluster: cctx,
		Logical: w.Logical(),
		Layout:  lay,
		Rec:     rec,
		Cfg:     cfg,
	}
	inj := cctx.Cluster.Injector()
	if inj != nil {
		// The scenario engine's during-recovery triggers observe this
		// worker's recovery machine; epoch-entry transitions (Acked, and
		// GroupRebuild for drivers that skip a separate ack report) arm
		// them. The classification happens here because the cluster layer
		// cannot name ft's states.
		w.Machine().SetObserver(func(tr ft.Transition) {
			entry := tr.To == ft.StateAcked || tr.To == ft.StateGroupRebuild
			inj.NoteRecovery(p.Rank(), ctx.Logical, tr.Epoch, entry)
		})
		// During-collective triggers observe every collective the worker
		// issues; a matched fault lands while the victim's partners are
		// inside the same barrier/allreduce.
		w.SetCollectiveHook(func(count int64) bool {
			return inj.NoteCollective(p.Rank(), ctx.Logical, count)
		})
	}
	if cfg.EnableCP {
		// Every neighbor copy, under either commit discipline, and every
		// mirror frame rides the GASPI checkpoint stream on its dedicated
		// queue. Every worker is both a sender (its library pushes to the
		// neighbor) and a receiver (the applier commits the upstream
		// neighbor's frames to this node's local store); all the processes
		// of a node push to the same receiver, each into its own slot.
		cps, err := ft.NewCPStream(p, cctx.Cluster.RanksOf(cctx.NodeID), ft.DefaultCPStreamBytes, 0, cfg.FT.CommTimeout)
		if err != nil {
			return err
		}
		w.AttachCPStream(cps)
		go cps.Serve(func(key string, blob []byte) error {
			return checkpoint.StoreReplica(cctx.Cluster, cctx.NodeID, key, blob)
		})
		defer cps.Stop()
		ctx.CP = checkpoint.New(cctx.Cluster, cctx.NodeID, cfg.CP, &cpStreamTransport{cctx: cctx, w: w})
		defer ctx.CP.Stop()
		ctx.CP.BindAbort(p.Dead())
		if inj != nil {
			ctx.CP.SetFlushHook(func(logical int, version int64) {
				inj.NoteFlush(p.Rank(), logical, version)
			})
		}
		ctx.CP.SetWorkerNodes(workerNodes(cctx.Cluster, w.RankMap().Snapshot()))
	}

	// A rescue's Init adopts the identity without communicating; the group
	// commit every survivor is also entering waits at the loop top.
	if err := app.Init(ctx, activation != nil); err != nil {
		return fmt.Errorf("core: init (logical %d, rescue %t): %w", ctx.Logical, activation != nil, err)
	}
	pending := activation // the acknowledged notice the loop top recovers from
	if activation == nil {
		// Rebuild is collective (and an app's initial Restore may be), and
		// a peer dying inside it is recovered like a loop-phase failure —
		// the victim's plan checkpoint is already replicated (Init waits
		// for it before returning), so a rescue can adopt the identity,
		// and with no state checkpoints yet the version agreement
		// restarts the group from scratch. Only a death before the plan
		// exists (the initial commit, Init) stays terminal: the paper's
		// protocol covers failures from the post-pre-processing
		// checkpoint onward.
		serr := app.Rebuild(ctx)
		if serr == nil {
			serr = app.Restore(ctx, nil, 0)
		}
		var fde *ft.FailureDetectedError
		if errors.As(serr, &fde) {
			pending = fde.Notice
		} else if serr != nil {
			return serr
		}
	}

	// Shadowed primaries mirror their state to the hot shadow after every
	// completed iteration: one frame over the checkpoint stream,
	// ack-blocked, so on return the shadow holds it. The shadow that took
	// over its own rank has no shadow of its own anymore.
	mirrorTo, mirroring := lay.ShadowOf(ctx.Logical)
	mirroring = mirroring && w.CPStream() != nil && p.Rank() != mirrorTo
	var mirrorBuf []byte // the frame, reused until a push fails
	mirrorFails := 0

	var iter, maxIterSeen int64
	lastCP := int64(-1)
	for pending != nil || !app.Finished(iter) {
		if pending != nil {
			// The one recovery handler. A hot shadow's mirror is offered
			// to its first recovery only.
			it, err := recoverAndReload(ctx, app, pending, fo)
			if err != nil {
				return err
			}
			iter, lastCP = it, it // the restored version's checkpoint already exists
			pending, fo = nil, nil
			continue
		}
		// Scenario-engine iteration triggers: a ProcExit event is the
		// paper's deterministic exit(-1) (Figure 4 methodology). A
		// self-targeted external fault (kill -9, node down) marks this
		// process dead here; it unwinds at the next communication call,
		// like a real signal landing mid-compute.
		if inj != nil && inj.NoteIteration(p.Rank(), ctx.Logical, iter) {
			p.Exit(-1)
		}

		if cfg.EnableCP && iter%cfg.CheckpointEvery == 0 && iter != lastCP {
			stop := rec.Start(trace.PhaseCheckpoint)
			payload, err := app.Checkpoint(ctx)
			if err != nil {
				return err
			}
			err = ctx.CP.Write(stateName, ctx.Logical, iter, payload)
			stop()
			if err != nil {
				return err
			}
			rec.Inc(trace.KCoreCheckpoints, 1)
			lastCP = iter
		}

		phase := trace.PhaseCompute
		if iter < maxIterSeen {
			phase = trace.PhaseRedoWork
			// Recomputed iterations after a recovery. A hot-shadow
			// takeover's acceptance criterion is that this stays zero.
			rec.Inc(trace.KCoreRedoIters, 1)
		}
		stop := rec.Start(phase)
		err := app.Step(ctx, iter)
		stop()
		if err != nil {
			var fde *ft.FailureDetectedError
			if !errors.As(err, &fde) {
				return fmt.Errorf("core: step %d (logical %d): %w", iter, ctx.Logical, err)
			}
			pending = fde.Notice
			continue
		}
		iter++
		if iter > maxIterSeen {
			maxIterSeen = iter
		}
		if mirroring {
			pushed, err := pushMirror(ctx, app, &mirrorBuf, mirrorTo, iter)
			switch {
			case err != nil:
				// The shadow is gone (consumed as a rescue, or named dead
				// by a notice): stop mirroring for good.
				mirroring = false
			case !pushed:
				// Unexplained push failure: the board never names a dead
				// spare ("a dead spare only shrinks the pool"), so a dead
				// shadow looks exactly like a transient. Each failed push
				// costs an ack-wait timeout inline in the iteration loop;
				// retrying forever would throttle this rank until its
				// collective partners hit their stall limit. Tolerate a
				// short burst, then retire the mirror — degraded to the
				// checkpoint ladder, but computing at full speed.
				if mirrorFails++; mirrorFails >= maxMirrorPushFails {
					mirroring = false
				}
			default:
				mirrorFails = 0
			}
		}
	}

	// Surface background replication losses (never fatal — during
	// failures they are expected and recovery compensates — but on a
	// failure-free run a non-zero count means replicas silently went
	// missing; the experiments assert on it). Drain in-flight flushes
	// first or tail-end errors would escape the count.
	if ctx.CP != nil {
		ctx.CP.WaitIdle()
		// Couple sender drain to receiver lifetime: without this barrier
		// a fast-finishing worker stops its Serve applier while the
		// upstream neighbor's final flush still awaits the consumption
		// ack, turning a clean completion into a spurious replication
		// error. Best effort — a failure this late is handled by the
		// FD/shutdown machinery.
		_ = w.Barrier()
		rec.Inc(trace.KCoreCPFlushErrors, ctx.CP.ErrCount())
		rec.Inc(trace.KCoreCPReleased, ctx.CP.Stats().Released)
	}

	// The logical root reports completion: FD and idle spares shut down.
	if ctx.Logical == 0 {
		if err := ft.SignalShutdown(p, lay); err != nil {
			return err
		}
	}
	return nil
}

// failoverState is a hot shadow's pending takeover, threaded into the
// recovery reload: the payload of the primary's last intact frame and the
// logical step it reflects (noCheckpoint when there is none). It is nil on
// every rank except a freshly activated shadow taking over the rank it
// mirrored, and stays pending across compound epoch restarts until the
// mirror is either adopted (reload's agreement resumes live) or superseded
// by a checkpoint restore.
type failoverState struct {
	version int64
	payload []byte
}

// recoverAndReload drives the recovery epoch state machine to completion:
// group reconstruction (Worker.Recover: Acked → GroupRebuild), data
// re-initialization (reload, in StateRestore), and Resume. A
// FURTHER failure acknowledged during the restore phase — the
// compound-fault case the state machine exists for — restarts the epoch
// with the fresher notice instead of aborting the job: the machine's Ack
// from StateRestore re-enters Acked, and the loop rebuilds against the
// newer group view. It returns the iteration to resume from.
//
// Alongside the state machine's own phase accounting (ft.phase.*), the
// wall time of the complete recovery is decomposed into core.ttr.* trace
// counters (rebuild = group reconstruction, restore = data
// re-initialization from the live state or the store,
// resume = the machine's epoch completion, total = everything from the
// acknowledged notice to the worker re-entering the loop) — the per-phase
// time-to-recover breakdown the recovery benchmark trajectory tracks — and
// the GC cycles that completed meanwhile (core.ttr.gc_cycles). Fault
// detection itself (OHF1) is recorded upstream as ft.phase.detect_ns the
// moment the acknowledgment arrives.
func recoverAndReload(ctx *Ctx, app App, n *ft.Notice, fo *failoverState) (int64, error) {
	w := ctx.Worker
	gc := ctx.gcCycles[:]
	gc[0].Name = "/gc/cycles/total:gc-cycles"
	metrics.Read(gc)
	gcBefore := gc[0].Value.Uint64()
	start := time.Now()
	t0 := start
	for {
		if err := w.Recover(n); err != nil {
			return 0, err
		}
		ctx.Rec.Inc(trace.KCoreTTRRebuildNS, int64(time.Since(t0)))
		t1 := time.Now()
		it, err := reload(ctx, app, fo)
		ctx.Rec.Inc(trace.KCoreTTRRestoreNS, int64(time.Since(t1)))
		if err == nil {
			t2 := time.Now()
			err = w.Machine().Resume()
			ctx.Rec.Inc(trace.KCoreTTRResumeNS, int64(time.Since(t2)))
			ctx.Rec.Inc(trace.KCoreTTRTotalNS, int64(time.Since(start)))
			metrics.Read(gc)
			ctx.Rec.Inc(trace.KCoreTTRGCCycles, int64(gc[0].Value.Uint64()-gcBefore))
			return it, err
		}
		var fde *ft.FailureDetectedError
		if !errors.As(err, &fde) {
			return 0, err
		}
		ctx.Rec.Inc(trace.KCoreRecoveryRestarts, 1)
		n = fde.Notice
		t0 = time.Now()
	}
}

// keepFrame is the hot shadow's keep rule: an intact frame is the takeover
// candidate, its payload aliasing blob (the stream applier's private copy);
// a torn one leaves none.
//
//ftlint:hotpath
func keepFrame(blob []byte) (failoverState, bool) {
	f, err := checkpoint.DecodeFrame(blob)
	if err != nil {
		return failoverState{version: noCheckpoint}, false
	}
	return failoverState{version: f.Version, payload: f.Payload}, true
}

// maxMirrorPushFails is how many consecutive unexplained mirror-push
// failures a primary tolerates before it stops mirroring. A dead
// shadow is indistinguishable from a slow one here (the board never
// names dead spares), so the cap bounds the inline ack-timeout cost at
// a couple of intervals instead of throttling the rank for the rest of
// the run.
const maxMirrorPushFails = 2

// pushMirror streams one end-of-iteration state frame to the hot shadow,
// encoded into *buf by the checkpoint writer's encoder. iter is the
// iteration about to start — the step the shadow would resume at, and the
// frame's version by the same convention the checkpoint store uses. pushed
// reports whether the frame landed; a non-nil err means the shadow is
// known-gone (consumed as a rescue, or named dead by a notice) and the
// caller must stop mirroring immediately.
func pushMirror(ctx *Ctx, app App, buf *[]byte, to ft.Rank, iter int64) (pushed bool, err error) {
	payload, err := app.Checkpoint(ctx)
	if err != nil {
		// Serialization failure is app-fatal elsewhere; for the mirror it
		// only means this frame is skipped.
		return true, nil
	}
	blob := checkpoint.EncodeFrame(*buf, ctx.Logical, iter, payload)
	*buf = blob
	w := ctx.Worker
	if perr := w.CPStream().Push(to, "mirror/"+stateName, blob); perr != nil {
		// The fabric may still reference the frame after a timeout; hand
		// its buffer to the GC rather than reusing it, as the writer
		// abandons its buffer halves.
		*buf = nil
		if n := w.Machine().Notice(); n != nil &&
			int(to) < len(n.Status) && n.Status[to] != ft.StatusIdle {
			return false, perr
		}
		return false, nil
	}
	return true, nil
}

// reload is the data re-initialization step (OHF3): refresh the
// fault-aware checkpoint library, rebuild communication structures (once:
// every source of state below needs them), and agree on the one state the
// whole group resumes from.
//
// One agreement settles it. Every member contributes two proposals: cand,
// the step its live state is at — a survivor's LiveIteration, a taking-over
// shadow's mirror version, noCheckpoint for anyone without trustworthy live
// state — and mine, its newest checkpoint version (FindLatest). A single
// min-reduce of [cand, -cand, mine] yields the minimum and (negated)
// maximum of cand and the minimum of mine. All candidates equal and
// non-negative is the takeover: survivors keep their live state untouched,
// every taking-over shadow installs its mirror, and the group resumes at
// that step with zero recomputed iterations — after any number of victims,
// as long as each was replaced by its own up-to-date shadow. Otherwise (a
// cold rescue, a torn or empty mirror, a frame lost in a victim's final
// push window) every member falls through alike, since the decision reads
// only the allreduce result, to the version the same collective agreed on.
//
// The store path is a verified loop: every member fetches the agreed
// version, and a second allreduce confirms everyone succeeded. A version
// below some member's newest can still be unrestorable for it: every
// replica of that version may have been lost with the failed node while a
// newer one survived elsewhere, a source can die between the seal scan and
// the read, and anything behind the store's retention window is gone
// (checkpoint.Library keeps, per family, the generation that last sealed
// on both of its stores and the two behind it: two being how far the
// double-buffered writer lets one member's sealed copy trail its peers', so
// the first agreement lands inside every member's window unless a writer
// had fallen further behind than that). A failed fetch retreats the
// proposal below the failed version and the group re-agrees on mine alone;
// members that fetched fine discard the payload and follow, keeping the
// group consistent. The loop strictly decreases the agreed version, ending
// at worst in the restart-from-scratch branch. An epoch therefore makes one
// collective on a takeover and two plus one per retreat on a restore.
func reload(ctx *Ctx, app App, fo *failoverState) (int64, error) {
	stop := ctx.Rec.Start(trace.PhaseReinit)
	defer stop()

	if ctx.CP != nil {
		ctx.CP.SetWorkerNodes(workerNodes(ctx.Cluster.Cluster, ctx.Worker.RankMap().Snapshot()))
	}
	if err := app.Rebuild(ctx); err != nil {
		return 0, err
	}

	cand, mine := noCheckpoint, noCheckpoint
	if fo != nil {
		cand = fo.version
	} else if li, ok := app.(interface{ LiveIteration(*Ctx) (int64, bool) }); ok {
		if v, valid := li.LiveIteration(ctx); valid {
			cand = v
		}
	}
	if ctx.CP != nil {
		if v, ok := ctx.CP.FindLatest(stateName, ctx.Logical); ok {
			mine = v
		}
	}
	agreed, err := ctx.Worker.AllreduceI64([]int64{cand, -cand, mine}, gaspi.OpMin)
	if err != nil {
		return 0, err
	}
	if lo, hi := agreed[0], -agreed[1]; lo >= 0 && lo == hi {
		if fo != nil {
			if err := app.Restore(ctx, fo.payload, lo); err != nil {
				return 0, err
			}
			ctx.Rec.Inc(trace.KFTShadowFailovers, 1)
			ctx.Rec.Event(trace.KEvShadowTakeover)
		}
		return lo, nil
	}
	if fo != nil {
		ctx.Rec.Inc(trace.KFTShadowFallbacks, 1)
	}
	version := agreed[2]
	for {
		if version == noCheckpoint {
			// No consistent checkpoint anywhere: restart from the beginning.
			if err := app.Restore(ctx, nil, 0); err != nil {
				return 0, err
			}
			ctx.Rec.Inc(trace.KCoreRestartsFromScratch, 1)
			return 0, nil
		}
		payload, src, ferr := ctx.CP.FetchFrom(stateName, ctx.Logical, version)
		ok := int64(1)
		if ferr != nil {
			ok = 0
		}
		allOk, err := ctx.Worker.AllreduceI64([]int64{ok}, gaspi.OpMin)
		if err != nil {
			return 0, err
		}
		if allOk[0] == 1 && ferr != nil {
			// This member voted 0, yet the min-reduce confirmed: the
			// agreement protocol itself is broken. Counted so the chaos
			// fuzzer's invariant sweep ("version agreement never resolves
			// to an unrestorable version") can assert on it across every
			// episode, and fatal because restoring would diverge the group.
			ctx.Rec.Inc(CounterAgreementViolations, 1)
			return 0, fmt.Errorf("core: version agreement confirmed v%d this member cannot reassemble: %w", version, ferr)
		}
		if allOk[0] == 1 {
			if err := app.Restore(ctx, payload, version); err != nil {
				return 0, err
			}
			ctx.Rec.Inc(trace.KCoreRestores, 1)
			// Where the replica came from (local / neighbor / remote / pfs):
			// the node-down scenarios assert the fallback actually exercised.
			ctx.Rec.Inc(trace.RestoreFromKey(src.String()), 1)
			return version, nil
		}
		// Some member could not reassemble the agreed version: retreat to
		// this member's newest restorable version below it and re-agree.
		ctx.Rec.Inc(trace.KCoreRestoreRetreats, 1)
		mine = noCheckpoint
		if v, ok := ctx.CP.FindLatestBelow(stateName, ctx.Logical, version); ok {
			mine = v
		}
		if agreed, err = ctx.Worker.AllreduceI64([]int64{mine}, gaspi.OpMin); err != nil {
			return 0, err
		}
		version = agreed[0]
	}
}

// cpStreamTransport adapts the checkpoint library's node-addressed
// replication to the rank-addressed GASPI stream: the neighbor NODE is
// mapped to the first worker rank currently hosted there (through the live
// rank map, so after a recovery pushes reach the rescue process) — the one
// receiver every process of this node pushes to.
type cpStreamTransport struct {
	cctx *cluster.ProcCtx
	w    *ft.Worker
}

func (t *cpStreamTransport) Push(nbNode int, key string, blob []byte) error {
	for _, r := range t.w.RankMap().Snapshot() {
		if t.cctx.Cluster.NodeOf(r) == nbNode {
			return t.w.CPStream().Push(r, key, blob)
		}
	}
	return fmt.Errorf("core: no worker rank hosted on neighbor node %d", nbNode)
}

// workerNodes maps the current worker physical ranks to their hosting
// nodes (deduplicated) — the fault-aware neighbor list handed to the C/R
// library after every recovery.
func workerNodes(cl *cluster.Cluster, actPhys []ft.Rank) []int {
	seen := make(map[int]bool)
	var nodes []int
	for _, r := range actPhys {
		n := cl.NodeOf(r)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	return nodes
}

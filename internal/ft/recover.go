package ft

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gaspi"
	"repro/internal/trace"
)

// CreateBoard allocates the notice-board segment; every process calls it
// during initialization.
func CreateBoard(p *gaspi.Proc, lay Layout) error {
	return p.SegmentCreate(SegBoard, BoardSize(lay))
}

// Recover executes the paper's Listing 2 on a worker (or a freshly
// activated rescue) by driving the recovery epoch state machine through
// Acked and GroupRebuild: apply the new identity map, enforce the death
// of the failed processes, repair the communication infrastructure, and
// rebuild and commit the worker group. The commit waits like every other
// blocking call of the worker (commitGroup); a further failure
// acknowledged while committing restarts the epoch with the newer notice
// (GroupRebuild→Acked). On success the machine is left in StateRestore:
// data re-initialization is the caller's next step, completed with
// Machine().Resume().
//
// This is the only group repair: a hot shadow's takeover runs it too, and
// differs only in where the caller's re-initialization step finds the
// state.
func (w *Worker) Recover(n *Notice) error {
	stop := w.rec.Start(trace.PhaseReinit)
	defer stop()
	for {
		if n.Unrecoverable {
			_ = w.sm.Ack(n) // terminal: the machine stays Acked
			return ErrUnrecoverable
		}
		// Usually a no-op: checkNotice (or AdoptIdentity) already acked
		// this epoch; a caller handing a notice straight in is also legal.
		if err := w.sm.Ack(n); err != nil {
			return err
		}
		w.rm.Set(n.ActPhys)
		w.fd = n.DetectorRank()
		w.epoch = n.Epoch
		w.commEpoch = n.Epoch
		// Publish the membership view version. Usually a no-op after
		// checkNotice, but it covers the rescue path (AdoptIdentity joins
		// the epoch without ever passing through checkNotice).
		w.p.SetViewVersion(n.Epoch)

		// Acked phase: enforce the death of every suspect (handles
		// transient failures and false positives, as in the paper).
		for _, r := range n.NewlyFailed {
			_ = w.p.ProcKill(r, gaspi.Block)
		}

		// Repair communication infrastructure: abandon operations stuck
		// towards dead or unreachable ranks.
		w.p.PurgeQueues()

		if err := w.sm.BeginRebuild(); err != nil {
			return err
		}

		// Tear down the old group; rescues that never held it are fine
		// (delete of an unknown group is a no-op).
		w.p.GroupDelete(w.gid)

		// The blocking commit is the paper's OHF2. Members join in the
		// rank map's order, so member index is logical rank and the
		// collectives' reduction trees are those of the fault-free run. A
		// member of the new group dying meanwhile comes back as the FD's
		// fresher notice, which checkNotice has already acked into the
		// machine (GroupRebuild→Acked, counted as an epoch restart):
		// restart with the fresher view.
		gid := WorkerGroupID(n.Epoch)
		err := w.commitGroup(gid, n.ActPhys)
		var fde *FailureDetectedError
		if errors.As(err, &fde) {
			w.p.GroupDelete(gid)
			n = fde.Notice
			continue
		}
		if err != nil {
			return fmt.Errorf("ft: group reconstruction: %w", err)
		}
		w.gid = gid
		w.rec.Inc(trace.KFTRecoveries, 1)
		return w.sm.BeginRestore()
	}
}

// CommitInitialGroup creates and commits the initial worker group
// (COMM_MAIN); every worker calls it before it first communicates. A
// member that dies instead of joining ends it like any blocking call of
// the worker: with the FD's FailureDetectedError, or ErrStalled when no
// acknowledgment comes.
func (w *Worker) CommitInitialGroup() error {
	return w.commitGroup(w.gid, w.lay.InitialActPhys())
}

// commitGroup creates group gid over members and commits it through retry,
// the one wait of every blocking call: CommTimeout slices on the attention
// line, the successor probe, a broken connection latched until the FD's
// acknowledgment, and StallLimit.
func (w *Worker) commitGroup(gid gaspi.GroupID, members []Rank) error {
	if err := w.p.GroupCreate(gid); err != nil && !errors.Is(err, gaspi.ErrInvalid) {
		return err
	}
	for _, r := range members {
		if err := w.p.GroupAdd(gid, r); err != nil {
			return err
		}
	}
	return w.retry(func(t time.Duration) error { return w.p.GroupCommit(gid, t) })
}

// AdoptIdentity turns an activated rescue process into a worker: the
// wrapper starts at the failed process's logical rank with the notice's
// state already applied. The caller then runs Recover (to join the group
// commit) followed by data re-initialization from the failed process's
// checkpoint.
func AdoptIdentity(p *gaspi.Proc, lay Layout, cfg Config, n *Notice, logical int, rec *trace.Recorder) *Worker {
	w := NewWorker(p, lay, cfg, logical, true, rec)
	w.rm.Set(n.ActPhys)
	w.epoch = n.Epoch - 1 // Recover applies epoch n
	w.commEpoch = n.Epoch - 1
	// The rescue never held the pre-failure group: point the group id at
	// the previous epoch's id so Recover's delete is a harmless no-op.
	w.gid = WorkerGroupID(n.Epoch - 1)
	// The activation IS the acknowledgment: the rescue joins the epoch
	// already acked, mid-recovery.
	_ = w.sm.Ack(n)
	return w
}

// WaitActivation is the idle spare's main loop ("the rest of the idle
// processes stay idle until FD detects a failure and asks idle processes
// to act as rescue processes"). It returns the activating notice and the
// adopted logical rank, or shutdown=true when the application completed.
func WaitActivation(p *gaspi.Proc, lay Layout, cfg Config) (n *Notice, logical int, shutdown bool, err error) {
	out, n, logical, err := idleSpare(p, lay, cfg, false)
	return n, logical, err == nil && out == StandbyShutdown, err
}

// idleSpare is the one idle-spare loop: wait for board traffic, return on
// shutdown (StandbyShutdown), on a notice naming this rank a rescue
// (StandbyActivated, the notice and the adopted logical rank) or on an
// unrecoverable one (ErrUnrecoverable). With probeFD — the standby
// detector's vigil — the wait is bounded by the scan interval and every
// lap also pings the FD; a dead FD ends the loop with StandbyPromoted and
// the last notice seen (nil when no failure ever happened).
func idleSpare(p *gaspi.Proc, lay Layout, cfg Config, probeFD bool) (StandbyOutcome, *Notice, int, error) {
	cfg = cfg.withDefaults()
	wait := gaspi.Block
	if probeFD {
		wait = cfg.ScanInterval
	}
	var last *Notice
	var lastEpoch uint64
	for {
		// Board traffic, a shutdown, or (probing) the next FD probe tick.
		if _, err := p.NotifyWaitsome(SegBoard, 0, 2, wait); err != nil && !errors.Is(err, gaspi.ErrTimeout) {
			return StandbyShutdown, nil, 0, err
		}
		if v, err := p.NotifyPeek(SegBoard, NotifShutdown); err != nil {
			return StandbyShutdown, nil, 0, err
		} else if v != 0 {
			return StandbyShutdown, nil, 0, nil
		}
		if val, err := p.NotifyReset(SegBoard, NotifAck); err != nil {
			return StandbyShutdown, nil, 0, err
		} else if uint64(val) > lastEpoch {
			blob, err := p.SegmentCopyOut(SegBoard, 0, BoardSize(lay))
			if err != nil {
				return StandbyShutdown, nil, 0, err
			}
			n, err := DecodeNotice(blob)
			if err != nil {
				return StandbyShutdown, nil, 0, err
			}
			if n.Epoch > lastEpoch {
				lastEpoch = n.Epoch
				last = n
				if n.Unrecoverable {
					return StandbyShutdown, n, 0, ErrUnrecoverable
				}
				if l, ok := n.RescueOf(p.Rank()); ok {
					return StandbyActivated, n, l, nil
				}
			}
		}
		// Probe the FD (management questions go over the data plane like
		// every ping; a dead or partitioned FD fails the probe). The probe
		// uses the same retry-tolerant policy as the FD's own scan, so the
		// standby does not promote itself on a single scheduler stall.
		if probeFD && pingDead(p, 0, cfg) {
			return StandbyPromoted, last, 0, nil
		}
	}
}

// SignalShutdown tells the FD and the idle spares that the application
// completed; the logical root worker calls it after the final result.
// Ranks that died meanwhile (NACKed) or became unreachable (flush timeout)
// are tolerated: each notification is delivered independently, so every
// reachable process still receives the signal.
func SignalShutdown(p *gaspi.Proc, lay Layout) error {
	const q = gaspi.QueueID(0)
	for r := 0; r < lay.Procs; r++ {
		if Rank(r) == p.Rank() {
			continue
		}
		if err := p.Notify(Rank(r), SegBoard, NotifShutdown, 1, q); err != nil {
			return err
		}
	}
	err := p.WaitQueue(q, 2*time.Second)
	if errors.Is(err, gaspi.ErrTimeout) {
		p.PurgeQueues() // a partitioned peer swallowed a notify; move on
		return nil
	}
	if errors.Is(err, gaspi.ErrQueue) {
		return nil // dead peers NACKed; the live ones got the signal
	}
	return err
}

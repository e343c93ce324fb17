package ft

import (
	"encoding/binary"
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

// SetupInitialGroup creates and commits the initial worker group
// (COMM_MAIN) on a worker process.
func SetupInitialGroup(p *gaspi.Proc, lay Layout, timeout time.Duration) error {
	gid := WorkerGroupID(0)
	if err := p.GroupCreate(gid); err != nil {
		return err
	}
	for l := 0; l < lay.Workers(); l++ {
		if err := p.GroupAdd(gid, lay.InitialPhysical(l)); err != nil {
			return err
		}
	}
	return p.GroupCommit(gid, timeout)
}

// Recover executes the paper's Listing 2 on a worker (or a freshly
// activated rescue) by driving the recovery epoch state machine through
// Acked and GroupRebuild: apply the new identity map, enforce the death
// of the failed processes, repair the communication infrastructure, and
// rebuild and commit the worker group. If a further failure is
// acknowledged while committing, the epoch restarts with the newer notice
// (GroupRebuild→Acked). On success the machine is left in StateRestore:
// data re-initialization from the checkpoint is the caller's next step,
// completed with Machine().Resume().
//
// With Config.LocalizedRepair, a single-victim epoch routes to the
// localized O(degree) path instead of the collective commit; see
// recoverLocalized. The mode is a pure function of the notice, so every
// survivor of an epoch picks the same path — mixing an adopt-commit with
// a handshake-commit on one group id would deadlock the handshakers.
func (w *Worker) Recover(n *Notice) error {
	stop := w.rec.Start(trace.PhaseReinit)
	defer stop()
	deadline := time.Now().Add(w.cfg.StallLimit)
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

		if w.useLocalized(n) {
			n2, err := w.recoverLocalized(n, deadline)
			if err != nil {
				return err
			}
			if n2 != nil {
				n = n2 // repair-set member died mid-repair: restart epoch
				continue
			}
			return nil
		}

		if err := w.sm.BeginRebuild(); err != nil {
			return err
		}

		// Tear down the old group; rescues that never held it are fine
		// (delete of an unknown group is a no-op).
		w.p.GroupDelete(w.gid)

		newGid := WorkerGroupID(n.Epoch)
		if err := w.p.GroupCreate(newGid); err != nil && !errors.Is(err, gaspi.ErrInvalid) {
			return err
		}
		for _, r := range n.WorkingRanks() {
			if err := w.p.GroupAdd(newGid, r); err != nil {
				return err
			}
		}

		// The blocking commit is the paper's OHF2. Committing with the
		// communication timeout lets us keep checking for further
		// failures; a timed-out commit resumes where it stopped. A broken
		// connection (ErrConnBroken: a member of the NEW group died while
		// we were committing, reported promptly instead of via timeout) is
		// handled the same way — wait for the FD's fresher notice, pacing
		// the retries since the error returns immediately. The attention
		// line is armed around the commit, so that notice ends it at once.
		for {
			err := w.attentive(func() error { return w.p.GroupCommit(newGid, w.cfg.CommTimeout) })
			if err == nil {
				w.gid = newGid
				w.rec.Inc(trace.KFTRecoveries, 1)
				return w.sm.BeginRestore()
			}
			if !errors.Is(err, gaspi.ErrTimeout) && !errors.Is(err, gaspi.ErrConnection) {
				return fmt.Errorf("ft: group reconstruction: %w", err)
			}
			// checkNotice acks a fresher epoch into the machine
			// (GroupRebuild→Acked, counted as an epoch restart).
			n2, nerr := w.checkNotice()
			if nerr != nil {
				return nerr
			}
			if n2 != nil && n2.Epoch > n.Epoch {
				// A member of the new group died while we were committing:
				// restart with the fresher view.
				w.p.GroupDelete(newGid)
				n = n2
				break
			}
			if !errors.Is(err, gaspi.ErrTimeout) {
				// Pace the instantly-returning ErrConnBroken retries on the
				// attention line: the FD's fresher notice ends the pause.
				w.nudgeDetector()
				w.p.AttentionWait(w.cfg.CommTimeout / 10)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: during group reconstruction", ErrStalled)
			}
		}
	}
}

// useLocalized reports whether a notice routes to the localized repair
// path. The predicate reads only the notice and static config, so every
// survivor derives the same mode for the epoch — the invariant the whole
// scheme rests on. Multi-victim epochs (including a repair that lost one
// of its own members and restarted with a fresher notice naming two
// logicals) take the global recommit on every rank alike.
func (w *Worker) useLocalized(n *Notice) bool {
	return w.hc && w.cfg.LocalizedRepair && n.WorkerFailed &&
		!n.Unrecoverable && len(n.FailedLogicals) == 1
}

// useFailover reports whether a localized epoch is a hot-shadow failover:
// the single victim had a shadow under the replication policy AND the
// detector actually promoted that shadow as the rescue. Like useLocalized
// it reads only the notice and static config, so every member derives the
// same mode. A dead or already-consumed shadow shows up as a different
// rescue rank in ActPhys and routes the epoch to the plain localized (or
// global) ladder.
func (w *Worker) useFailover(n *Notice) bool {
	if !w.useLocalized(n) {
		return false
	}
	victim := int(n.FailedLogicals[0])
	if victim < 0 || victim >= len(n.ActPhys) {
		return false
	}
	shadow, ok := ShadowOf(w.lay, w.cfg, victim)
	return ok && n.ActPhys[victim] == shadow
}

// chainNeighbors returns the logical ranks of a victim's checkpoint-chain
// neighbors — computable by every rank from the worker count alone, which
// is what lets the hub know its join set without knowing the victim's
// application-level halo.
func chainNeighbors(victim, workers int) (prev, next int) {
	return (victim - 1 + workers) % workers, (victim + 1) % workers
}

// inRepairSet reports whether this worker belongs to a victim's repair
// set: the victim's halo partners (from the application's communication
// plan) plus its checkpoint-chain neighbors (the restore sources).
func (w *Worker) inRepairSet(victim int) bool {
	prev, next := chainNeighbors(victim, w.lay.Workers())
	if w.logical == prev || w.logical == next {
		return true
	}
	for _, p := range w.haloPartners {
		if p == victim {
			return true
		}
	}
	return false
}

// recoverLocalized is the localized O(degree) repair of a single-victim
// epoch. Every survivor tears down the old group and ADOPTS the new
// membership locally (GroupAdoptCommit) — the member list is a pure
// function of the notice, so no collective handshake is needed to agree
// on it. Only the repair set then synchronizes:
//
//   - The hub (the promoted rescue, holding the victim's identity)
//     publishes an epoch beacon in its board segment and waits for its
//     checkpoint-chain neighbors to join.
//   - Spokes (chain neighbors and the victim's halo partners) announce
//     themselves to the hub (chain only) and poll the hub's beacon with
//     one-sided reads until it carries this epoch. The beacon is
//     hub-passive: the hub never needs to know which survivors consider
//     the victim a halo partner.
//   - Bystanders skip the handshake entirely and proceed to restore —
//     they keep computing until their next collective, where the
//     membership-version check reconciles them.
//
// A fresher notice during the handshake (a repair-set member died)
// returns the notice for Recover's loop to restart the epoch — the mode
// is re-derived from the new notice, falling back to the global recommit
// when it names several victims.
func (w *Worker) recoverLocalized(n *Notice, deadline time.Time) (*Notice, error) {
	if err := w.sm.BeginLocalizedRepair(); err != nil {
		return nil, err
	}
	victim := int(n.FailedLogicals[0])
	if victim < 0 || victim >= len(n.ActPhys) {
		return nil, fmt.Errorf("ft: notice names invalid victim logical %d", victim)
	}
	hub := n.ActPhys[victim]

	w.p.GroupDelete(w.gid)
	newGid := WorkerGroupID(n.Epoch)
	if err := w.p.GroupCreate(newGid); err != nil && !errors.Is(err, gaspi.ErrInvalid) {
		return nil, err
	}
	for _, r := range n.WorkingRanks() {
		if err := w.p.GroupAdd(newGid, r); err != nil {
			return nil, err
		}
	}
	if err := w.p.GroupAdoptCommit(newGid); err != nil {
		return nil, err
	}

	var err error
	switch {
	case w.p.Rank() == hub:
		err = w.hubHandshake(n, deadline)
	case w.inRepairSet(victim):
		err = w.spokeHandshake(n, hub, victim, deadline)
	}
	if err != nil {
		var fde *FailureDetectedError
		if errors.As(err, &fde) {
			w.p.GroupDelete(newGid)
			return fde.Notice, nil
		}
		return nil, err
	}
	w.gid = newGid
	w.rec.Inc(trace.KFTRecoveries, 1)
	if w.useFailover(n) {
		// The rescue is the victim's hot shadow: skip the restore phase and
		// enter failover — the mirror-tail agreement and live-image adoption
		// happen in the framework's reload step, which falls back to
		// BeginRestore if the mirror turns out torn.
		return nil, w.sm.BeginFailover()
	}
	return nil, w.sm.BeginRestore()
}

// attentive runs one blocking call with the attention line armed, so a
// fresher notice landing on the board ends it early (gaspi.ErrAttention).
func (w *Worker) attentive(call func() error) error {
	w.p.AttentionArm(true)
	defer w.p.AttentionArm(false)
	return call()
}

// repairWait drives one blocking repair-handshake step with the worker's
// communication timeout, checking the board between attempts like
// Worker.retry, but charging nothing to the detect phase: a timed-out
// wait here is the normal idle state of the handshake, not a failure
// symptom. A queue error (a one-sided read NACKed by a dead peer) purges
// the queues so the next attempt starts clean.
func (w *Worker) repairWait(deadline time.Time, op func(timeout time.Duration) error) error {
	for {
		err := w.attentive(func() error { return op(w.cfg.CommTimeout) })
		if err == nil {
			return nil
		}
		if errors.Is(err, gaspi.ErrQueue) {
			w.p.PurgeQueues()
		} else if !errors.Is(err, gaspi.ErrTimeout) && !errors.Is(err, gaspi.ErrConnection) {
			return err
		}
		n2, nerr := w.checkNotice()
		if nerr != nil {
			return nerr
		}
		if n2 != nil {
			return w.acked(n2, timerExpired(err))
		}
		if !errors.Is(err, gaspi.ErrTimeout) {
			// Pace the instantly-returning errors on the attention line: a
			// fresher notice ends the pause. The error is a repair-set
			// member's death seen first-hand, so ask the FD to scan now.
			w.nudgeDetector()
			w.p.AttentionWait(w.cfg.CommTimeout / 10)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: during localized repair", ErrStalled)
		}
	}
}

// hubHandshake is the promoted rescue's side of the localized repair: it
// publishes the epoch beacon (spokes poll it one-sidedly), then waits for
// its checkpoint-chain neighbors' join notifications so its restore
// sources are known to be group-ready before data re-initialization.
func (w *Worker) hubHandshake(n *Notice, deadline time.Time) error {
	victim := int(n.FailedLogicals[0])
	prev, next := chainNeighbors(victim, w.lay.Workers())
	var bcn [8]byte
	binary.LittleEndian.PutUint64(bcn[:], n.Epoch)
	if err := w.p.SegmentCopyIn(SegBoard, BeaconOff(w.lay), bcn[:]); err != nil {
		return err
	}
	wantPrev := prev != victim           // false only when W==1: no survivors
	wantNext := wantPrev && next != prev // W==2 collapses both roles onto one
	// joinsDone sweeps both join slots and CONSUMES every value it sees:
	// a join carrying this epoch is latched in got[], anything else is a
	// stale join from an abandoned epoch. Consuming (rather than leaving a
	// matched join in the slot) is what lets the blocking wait below truly
	// block while the other join is outstanding — a set slot would make
	// NotifyWaitsome return instantly and turn the handshake into a spin
	// that starves co-scheduled ranks.
	var got [2]bool
	joinsDone := func() (bool, error) {
		want := [2]bool{wantPrev, wantNext}
		for i, id := range [...]gaspi.NotificationID{NotifJoinPrev, NotifJoinNext} {
			v, err := w.p.NotifyPeek(SegBoard, id)
			if err != nil {
				return false, err
			}
			if v == 0 {
				continue
			}
			if _, err := w.p.NotifyReset(SegBoard, id); err != nil {
				return false, err
			}
			if want[i] && uint64(v) == n.Epoch {
				got[i] = true
			}
		}
		return (got[0] || !wantPrev) && (got[1] || !wantNext), nil
	}
	return w.repairWait(deadline, func(t time.Duration) error {
		ok, err := joinsDone()
		if err != nil || ok {
			return err
		}
		if _, err := w.p.NotifyWaitsome(SegBoard, NotifJoinPrev, 2, t); err != nil {
			return err
		}
		ok, err = joinsDone()
		if err != nil || ok {
			return err
		}
		return gaspi.ErrTimeout
	})
}

// spokeHandshake is a repair-set survivor's side of the localized repair:
// chain neighbors announce themselves on the hub's join slot, then every
// spoke polls the hub's beacon with one-sided reads (into its own,
// otherwise unused, beacon bytes) until the hub has adopted this epoch's
// group. A dead hub NACKs the read; the FD's fresher notice then restarts
// the epoch via repairWait's board check.
func (w *Worker) spokeHandshake(n *Notice, hub Rank, victim int, deadline time.Time) error {
	prev, next := chainNeighbors(victim, w.lay.Workers())
	const q = gaspi.QueueID(0)
	// Prev wins the slot when W==2 collapses both chain roles onto the
	// single survivor — mirroring the hub's expectation exactly.
	if w.logical == prev {
		if err := w.p.Notify(hub, SegBoard, NotifJoinPrev, int64(n.Epoch), q); err != nil {
			return err
		}
	} else if w.logical == next {
		if err := w.p.Notify(hub, SegBoard, NotifJoinNext, int64(n.Epoch), q); err != nil {
			return err
		}
	}
	off := int64(BeaconOff(w.lay))
	return w.repairWait(deadline, func(t time.Duration) error {
		if err := w.p.Read(hub, SegBoard, off, SegBoard, off, 8, q); err != nil {
			return err
		}
		if err := w.p.WaitQueue(q, t); err != nil {
			return err
		}
		blob, err := w.p.SegmentCopyOut(SegBoard, int(off), 8)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(blob) != n.Epoch {
			// Hub not adopted yet: pace the poll in a slice of the
			// timeout so the hub isn't hammered with reads; a fresher
			// notice ends the pause.
			if w.p.AttentionWait(w.cfg.CommTimeout / 10) {
				return gaspi.ErrAttention
			}
			return gaspi.ErrTimeout
		}
		return nil
	})
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
	cfg = cfg.withDefaults()
	var lastEpoch uint64
	for {
		if _, err := p.NotifyWaitsome(SegBoard, 0, 2, gaspi.Block); err != nil {
			return nil, 0, false, err
		}
		if v, err := p.NotifyPeek(SegBoard, NotifShutdown); err != nil {
			return nil, 0, false, err
		} else if v != 0 {
			return nil, 0, true, nil
		}
		val, err := p.NotifyReset(SegBoard, NotifAck)
		if err != nil {
			return nil, 0, false, err
		}
		if uint64(val) <= lastEpoch {
			continue
		}
		blob, err := p.SegmentCopyOut(SegBoard, 0, BoardSize(lay))
		if err != nil {
			return nil, 0, false, err
		}
		notice, err := DecodeNotice(blob)
		if err != nil {
			return nil, 0, false, err
		}
		if notice.Epoch <= lastEpoch {
			continue
		}
		lastEpoch = notice.Epoch
		if notice.Unrecoverable {
			return notice, 0, false, ErrUnrecoverable
		}
		if l, ok := notice.RescueOf(p.Rank()); ok {
			return notice, l, false, nil
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

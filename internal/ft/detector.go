package ft

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/gaspi"
	"repro/internal/trace"
)

// DetectorOutcome is how a Detector.Run ended.
type DetectorOutcome int

// Outcomes.
const (
	// DetectorShutdown: the application completed and signalled shutdown.
	DetectorShutdown DetectorOutcome = iota
	// DetectorJoinWorkers: no idle spare was left, so the FD assigned
	// itself as rescue and must now run the worker flow (the paper:
	// "The FD process itself joins the worker group if no idle process is
	// further available"). Fault tolerance capability ends here
	// (restriction 2).
	DetectorJoinWorkers
	// DetectorUnrecoverable: more workers failed than rescues available
	// (restriction 1); the job cannot continue.
	DetectorUnrecoverable
)

// Detector is the dedicated fault-detector process logic (Listing 1): a
// periodic one-sided ping scan over all non-avoided processes, rescue
// assignment, suspect killing and the failure acknowledgment broadcast.
type Detector struct {
	p   *gaspi.Proc
	lay Layout
	cfg Config
	rec *trace.Recorder
	sm  *RecoveryMachine

	status  []ProcStatus
	actPhys []Rank
	avoid   []bool // the paper's avoid_list: known-failed ranks are not pinged again
	epoch   uint64
	joined  bool
}

// NewDetector builds the FD state for physical rank 0.
func NewDetector(p *gaspi.Proc, lay Layout, cfg Config, rec *trace.Recorder) *Detector {
	d := &Detector{
		p:       p,
		lay:     lay,
		cfg:     cfg.withDefaults(),
		rec:     rec,
		sm:      NewRecoveryMachine(rec),
		status:  make([]ProcStatus, lay.Procs),
		actPhys: lay.InitialActPhys(),
		avoid:   make([]bool, lay.Procs),
	}
	for r := 0; r < lay.Procs; r++ {
		switch lay.RoleOf(Rank(r)) {
		case RoleDetector:
			d.status[r] = StatusDetector
		case RoleSpare:
			d.status[r] = StatusIdle
		default:
			d.status[r] = StatusWorking
		}
	}
	return d
}

// Run executes the FD main loop: sleep, scan, and on failures assign
// rescues and acknowledge. It returns when the application signals
// shutdown, when the FD itself must become a worker, or when the job is
// unrecoverable. The returned notice is non-nil for the latter two.
func (d *Detector) Run() (DetectorOutcome, *Notice, error) {
	for {
		// Interruptible sleep: the scan interval doubles as the wait for
		// the shutdown signal and for a worker's suspicion nudge. The
		// nudge only moves the next scan forward — the same Scan and the
		// same pingDead decide who is dead. It is consumed before the
		// scan starts, so a nudge that lands while the scan is running
		// (and may concern a rank already pinged) starts another.
		id, err := d.p.NotifyWaitsome(SegBoard, NotifShutdown, 2, d.cfg.ScanInterval)
		nudged := err == nil
		switch {
		case nudged && id == NotifShutdown:
			return DetectorShutdown, nil, nil
		case nudged:
			if _, err := d.p.NotifyReset(SegBoard, NotifSuspect); err != nil {
				return DetectorShutdown, nil, fmt.Errorf("ft: detector wait: %w", err)
			}
			d.rec.Inc(trace.KFDScansNudged, 1)
		case !errors.Is(err, gaspi.ErrTimeout):
			return DetectorShutdown, nil, fmt.Errorf("ft: detector wait: %w", err)
		}

		failed := d.Scan()
		if len(failed) == 0 {
			continue
		}
		d.rec.Event(trace.KEvFDDetect)
		notice := d.handleFailures(failed)
		// The FD drives its machine through the Acked phase only: it
		// enforces the deaths and broadcasts the acknowledgment, but has
		// no group to rebuild and no data to restore.
		if err := d.sm.Ack(notice); err != nil {
			return DetectorShutdown, nil, err
		}
		if err := d.WriteBoards(notice); err != nil {
			return DetectorShutdown, nil, fmt.Errorf("ft: acknowledging failures: %w", err)
		}
		d.rec.Event(trace.KEvFDAck)
		d.rec.Inc(trace.KFDRecoveries, 1)
		if nudged {
			d.rec.Inc(trace.KFDRecoveriesNudged, 1)
		}
		if notice.Unrecoverable {
			// Terminal: the machine stays Acked and the job aborts crisply.
			return DetectorUnrecoverable, notice, nil
		}
		if d.joined {
			// The FD becomes a worker; its rescue identity's Worker gets a
			// fresh machine that re-acks this notice via AdoptIdentity.
			return DetectorJoinWorkers, notice, nil
		}
		if err := d.sm.Resume(); err != nil {
			return DetectorShutdown, nil, err
		}
	}
}

// Scan pings every non-avoided process once (the glo_health_chk routine of
// Listing 1) and returns the newly failed ranks. The targets are split into
// cfg.Threads chunks, each pinged in order on a goroutine of its own (one
// for a serial scan); with cfg.Threads > 1 that is the paper's threaded FD,
// which detects k simultaneous failures in roughly the time of one because
// failed pings (each costing PingTimeout) overlap.
func (d *Detector) Scan() []Rank {
	t0 := time.Now()
	var targets []Rank
	for r := 0; r < d.lay.Procs; r++ {
		if Rank(r) == d.p.Rank() || d.avoid[r] || d.status[r] == StatusFailed {
			continue
		}
		targets = append(targets, Rank(r))
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var failed []Rank
	threads := max(min(d.cfg.Threads, len(targets)), 1)
	chunk := (len(targets) + threads - 1) / threads
	for lo := 0; lo < len(targets); lo += chunk {
		wg.Add(1)
		go func(rs []Rank) {
			defer wg.Done()
			gaspi.Protect(func() { // the FD itself may be killed mid-scan
				for _, r := range rs {
					if pingDead(d.p, r, d.cfg) {
						mu.Lock()
						failed = append(failed, r)
						mu.Unlock()
					}
				}
			})
		}(targets[lo:min(lo+chunk, len(targets))])
	}
	wg.Wait()
	elapsed := time.Since(t0)
	d.rec.Inc(trace.KFDScans, 1)
	d.rec.Inc(trace.KFDPings, int64(len(targets)))
	d.rec.Inc(trace.KFDScanNS, int64(elapsed))
	if len(failed) == 0 {
		d.rec.Inc(trace.KFDCleanScans, 1)
		d.rec.Inc(trace.KFDCleanScanNS, int64(elapsed))
	}
	for _, r := range failed {
		d.avoid[r] = true // protects messaging already discovered failed processes
	}
	return failed
}

// pingDead is the retry-tolerant liveness probe shared by the FD scan and
// the standby's FD watch. A broken connection (NACK) is conclusive on the
// first attempt — the rank is dead; only timeouts are retried, giving a
// healthy rank whose NIC (the fabric shard running it) was stalled by the
// host scheduler up to PingRetries chances to answer. Between attempts the
// prober SLEEPS for a ping timeout rather than re-pinging back to back: on
// an oversubscribed host the starved shard needs the prober to yield the
// CPU, or the retries would only measure the prober's own busy loop.
func pingDead(p *gaspi.Proc, r Rank, cfg Config) bool {
	for attempt := 1; ; attempt++ {
		err := p.ProcPing(r, cfg.PingTimeout)
		if err == nil {
			return false
		}
		if !errors.Is(err, gaspi.ErrTimeout) {
			return true // NACK: conclusively dead
		}
		if attempt >= cfg.PingRetries {
			return true
		}
		time.Sleep(cfg.PingTimeout)
	}
}

// handleFailures updates the global state for newly failed ranks: failed
// workers get rescue processes from the idle pool (or the FD itself as the
// last resort), and every suspect is enforced dead with gaspi_proc_kill so
// transient failures and false positives cannot corrupt the application.
func (d *Detector) handleFailures(failed []Rank) *Notice {
	// The threaded scan reports failures in nondeterministic order; sort
	// so rescue assignment is reproducible.
	slices.Sort(failed)
	d.epoch++
	workerFailed := false
	unrecoverable := false
	for _, r := range failed {
		prev := d.status[r]
		d.status[r] = StatusFailed
		if prev != StatusWorking {
			continue // a dead spare only shrinks the pool
		}
		workerFailed = true
		logical := -1
		for l, p := range d.actPhys {
			if p == r {
				logical = l
				break
			}
		}
		if logical < 0 {
			continue // already replaced in this epoch
		}
		if spare, ok := d.pickRescue(logical); ok {
			d.status[spare] = StatusWorking
			d.actPhys[logical] = spare
		} else if !d.joined {
			// No idle process left: the FD itself joins the worker group.
			d.joined = true
			d.status[d.p.Rank()] = StatusWorking
			d.actPhys[logical] = d.p.Rank()
		} else {
			unrecoverable = true
		}
	}
	// Enforce death centrally; every worker repeats this in its recovery
	// (Listing 2), but the FD's kill already guarantees that a process
	// that was merely unreachable (false positive) cannot linger.
	for _, r := range failed {
		_ = d.p.ProcKill(r, gaspi.Block)
	}
	return &Notice{
		Epoch:         d.epoch,
		Status:        append([]ProcStatus(nil), d.status...),
		ActPhys:       append([]Rank(nil), d.actPhys...),
		NewlyFailed:   append([]Rank(nil), failed...),
		WorkerFailed:  workerFailed,
		Unrecoverable: unrecoverable,
	}
}

// pickRescue selects the rescue rank for a failed logical. A victim whose
// hot shadow is still idle gets that shadow — the rank already holding a
// live mirror of its state, enabling the zero-restore failover. Everyone
// else draws from the idle pool via pickSpare, which prefers non-shadow
// spares so an unshadowed victim does not consume another primary's
// shadow while a plain spare is available.
func (d *Detector) pickRescue(logical int) (Rank, bool) {
	if shadow, ok := d.lay.ShadowOf(logical); ok && d.status[shadow] == StatusIdle {
		return shadow, true
	}
	return d.pickSpare()
}

func (d *Detector) pickSpare() (Rank, bool) {
	for r := 0; r < d.lay.Procs; r++ {
		// First pass: idle spares outside the shadow band (ranks
		// 1..Shadows are some primary's shadow).
		if d.status[r] == StatusIdle && (r < 1 || r > d.lay.Shadows) {
			return Rank(r), true
		}
	}
	for r := 0; r < d.lay.Procs; r++ {
		if d.status[r] == StatusIdle {
			return Rank(r), true
		}
	}
	return NilRank, false
}

// NilRank re-exports the invalid rank sentinel.
const NilRank = gaspi.NilRank

// WriteBoards pushes the notice into every healthy process's notice-board
// segment via one-sided writes, then fires the acknowledgment notification
// (value = epoch). The per-pair FIFO guarantee of write-then-notify makes
// the board content consistent when the signal is seen.
func (d *Detector) WriteBoards(n *Notice) error {
	blob := n.Encode()
	const q = gaspi.QueueID(0)
	for r := 0; r < d.lay.Procs; r++ {
		if d.status[r] == StatusFailed {
			continue
		}
		if err := d.p.Write(Rank(r), SegBoard, 0, blob, q); err != nil {
			return err
		}
		if err := d.p.Notify(Rank(r), SegBoard, NotifAck, int64(n.Epoch), q); err != nil {
			return err
		}
	}
	// Board writes to ranks that died since the scan fail with NACKs; the
	// next scan will pick those deaths up. Don't fail the acknowledgment.
	if err := d.p.WaitQueue(q, gaspi.Block); err != nil && !errors.Is(err, gaspi.ErrQueue) {
		return err
	}
	return nil
}

// Epoch returns the detector's current recovery epoch.
func (d *Detector) Epoch() uint64 { return d.epoch }

// Machine exposes the detector's recovery epoch state machine.
func (d *Detector) Machine() *RecoveryMachine { return d.sm }

// Status returns a copy of the detector's status array (for tests).
func (d *Detector) Status() []ProcStatus {
	return append([]ProcStatus(nil), d.status...)
}

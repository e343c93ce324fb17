package ft

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gaspi"
	"repro/internal/trace"
)

// FailureDetectedError is returned by worker communication wrappers when
// the FD's failure-acknowledgment signal was received: the application must
// stop communicating and enter the recovery stage with the carried notice.
type FailureDetectedError struct {
	Notice *Notice
}

func (e *FailureDetectedError) Error() string {
	return fmt.Sprintf("ft: failure acknowledged (epoch %d, %d newly failed)",
		e.Notice.Epoch, len(e.Notice.NewlyFailed))
}

// ErrStalled reports that a worker spent longer than the stall limit
// retrying communication without ever receiving a failure acknowledgment —
// the symptom of a dead FD process (the paper's restriction 2).
var ErrStalled = errors.New("ft: stalled without failure acknowledgment (fault detector lost?)")

// ErrUnrecoverable reports that the failure exceeded the spare pool.
var ErrUnrecoverable = errors.New("ft: failures exceed available rescue processes")

// Worker is the fault-tolerance-aware communication wrapper handed to the
// spMVM library and the application. It implements spmvm.Comm: every
// blocking call runs with the configured communication timeout and checks
// the failure-acknowledgment notification on timeout, exactly like the
// paper's modified communication routines. Logical worker ranks are
// translated through the rank map, so a rescue process that took over a
// failed identity is transparent to the caller.
type Worker struct {
	p   *gaspi.Proc
	lay Layout
	cfg Config
	rm  *RankMap
	rec *trace.Recorder
	sm  *RecoveryMachine

	logical int
	gid     gaspi.GroupID
	epoch   uint64
	hc      bool

	// commEpoch tags application communication (the halo notification
	// protocol reads it through Epoch()). Unlike epoch — the board-notice
	// ordering counter, which absorbed spare-death notices advance on each
	// rank whenever it happens to poll — commEpoch moves ONLY through
	// Recover's synchronized group rebuild, so every member of a working
	// group always agrees on it. Tagging with the polling-order epoch
	// deadlocks the group when a spare dies mid-iteration: ranks that
	// absorbed the notice discard their partners' halos as stale and vice
	// versa, and no recovery ever comes to resynchronize them.
	commEpoch uint64

	cps *CPStream // checkpoint replication endpoint; nil without checkpointing

	// fd is the rank the suspicion nudges go to: the detector named by the
	// latest notice (rank 0 until one arrives, NilRank once the FD joined
	// the workers). lastNudge paces them.
	fd        Rank
	lastNudge time.Time

	// from is the physical translation of the sources the next
	// NotifyWaitsome still lacks (AwaitFrom); its backing array is reused.
	from []Rank

	// collHook, when set, observes every collective call this worker
	// issues (running ordinal as argument). The scenario engine's
	// during-collective fault triggers hang off it; exitNow mirrors the
	// iteration hook's contract.
	collHook  func(count int64) (exitNow bool)
	collCount int64
}

// NewWorker wraps a process acting as logical rank `logical`.
// hc=false disables all health-check/acknowledgment logic (the baseline
// "w/o HC" configuration): calls simply block.
func NewWorker(p *gaspi.Proc, lay Layout, cfg Config, logical int, hc bool, rec *trace.Recorder) *Worker {
	if hc {
		// The acknowledgment slot raises the process's attention line, so
		// the board write itself ends a blocked call. Without a board the
		// registration fails like every later board access will.
		_ = p.AttentionWatch(SegBoard, NotifAck)
	}
	return &Worker{
		p:       p,
		lay:     lay,
		cfg:     cfg.withDefaults(),
		rm:      NewRankMap(lay.InitialActPhys()),
		rec:     rec,
		sm:      NewRecoveryMachine(rec),
		logical: logical,
		gid:     WorkerGroupID(0),
		hc:      hc,
	}
}

// Machine exposes the worker's recovery epoch state machine. The
// framework consumes its transitions (and the scenario engine observes
// them for during-recovery fault triggers).
func (w *Worker) Machine() *RecoveryMachine { return w.sm }

// Proc implements spmvm.Comm.
func (w *Worker) Proc() *gaspi.Proc { return w.p }

// Logical implements spmvm.Comm.
func (w *Worker) Logical() int { return w.logical }

// NumWorkers implements spmvm.Comm.
func (w *Worker) NumWorkers() int { return w.lay.Workers() }

// Epoch implements spmvm.Comm: the communication epoch — the zombie
// fence for halo tags. It advances only with the group (see commEpoch),
// never on absorbed bookkeeping notices.
func (w *Worker) Epoch() int64 { return int64(w.commEpoch) }

// RankMap exposes the logical→physical map (the C/R library and the
// application use it to locate peers).
func (w *Worker) RankMap() *RankMap { return w.rm }

// AttachCPStream hands the worker the checkpoint-stream endpoint that
// carries its neighbor replicas and mirror frames. The stream survives
// recovery: Recover purges the queues (failing any in-flight push, which
// the checkpoint library records and tolerates) and the per-frame sequence
// keeps stale acknowledgments harmless.
func (w *Worker) AttachCPStream(s *CPStream) { w.cps = s }

// CPStream returns the attached checkpoint stream (nil without
// checkpointing).
func (w *Worker) CPStream() *CPStream { return w.cps }

// checkNotice polls the failure-acknowledgment notification (without
// consuming it) and decodes the board when a new epoch is visible.
// Notices that require no recovery (a dead spare) are absorbed silently.
// It lowers the attention line first: whatever raised it is what the peek
// below reads, and an acknowledgment landing after the peek raises it
// again.
func (w *Worker) checkNotice() (*Notice, error) {
	if !w.hc {
		return nil, nil
	}
	w.p.AttentionClear()
	val, err := w.p.NotifyPeek(SegBoard, NotifAck)
	if err != nil {
		return nil, err
	}
	if uint64(val) <= w.epoch {
		return nil, nil
	}
	blob, err := w.p.SegmentCopyOut(SegBoard, 0, BoardSize(w.lay))
	if err != nil {
		return nil, err
	}
	n, err := DecodeNotice(blob)
	if err != nil {
		return nil, err
	}
	if n.Epoch <= w.epoch {
		// The notification raced ahead of the board content of an even
		// newer epoch; treat as not-yet-visible.
		return nil, nil
	}
	if n.Unrecoverable {
		// Terminal: the machine stays Acked; the job aborts crisply.
		_ = w.sm.Ack(n)
		return n, ErrUnrecoverable
	}
	if !n.WorkerFailed {
		// Only a spare died: bookkeeping, no recovery needed — a
		// degenerate epoch that passes straight from Acked to Resume.
		// When the notice lands MID-RECOVERY (a spare dying while this
		// worker rebuilds or restores a previous epoch), only the
		// bookkeeping applies: the in-flight epoch keeps its machine
		// state, and the epoch counter advancing past the spare's notice
		// is safe because group ids derive from worker-failure notices,
		// which every member shares.
		w.epoch = n.Epoch
		w.rm.Set(n.ActPhys)
		w.fd = n.DetectorRank()
		if w.sm.State() == StateHealthy {
			if err := w.sm.Ack(n); err != nil {
				return nil, err
			}
			return nil, w.sm.Resume()
		}
		return nil, nil
	}
	// A worker failed: the membership view moves on. Publishing the
	// version here — before recovery even starts — is what makes any
	// not-yet-rebuilt group stale at its next collective (ErrStaleView)
	// instead of parking in rounds with the dead member.
	w.p.SetViewVersion(n.Epoch)
	if err := w.sm.Ack(n); err != nil {
		return nil, err
	}
	return n, nil
}

// CheckFailure is the application-visible acknowledgment check ("the
// communication routines are checked for a failure acknowledgment signal
// from the FD process"). It returns a FailureDetectedError when recovery
// is required.
func (w *Worker) CheckFailure() error {
	n, err := w.checkNotice()
	if err != nil {
		return err
	}
	if n != nil {
		w.rec.Event(trace.KEvFTAck)
		return &FailureDetectedError{Notice: n}
	}
	return nil
}

// retry runs op under the communication timeout, checking the
// acknowledgment signal after every unsuccessful attempt — the paper's
// "processes keep on returning with GASPI_TIMEOUT unless a failure
// acknowledgment is received". The attention line is armed for the
// duration, so the acknowledgment landing on the board ends the attempt
// at once (gaspi.ErrAttention) and the timeout's expiry is only the
// fallback.
//
// The timeout is spent in slices: the first attempt lasts
// CommTimeout/firstSliceDiv, each expired one doubles the next up to the
// full CommTimeout. A slice that expires with no notice on the board asks
// the ring successor whether it is alive (probeSuccessor) before op is
// resumed, so a death that left this worker no NACK — every post to the
// victim had landed — still reaches the FD as a suspicion instead of
// waiting out the scan interval.
//
// A broken connection or a queue error is latched: only the FD
// establishes the consistent global view, so the error is held back until
// the acknowledgment arrives, and op is not issued again — a WaitQueue
// whose error list the failed attempt cleared would report success for a
// write that never landed. From then on retry leaves only with a
// FailureDetectedError, a board error or ErrStalled; while it waits it
// nudges the FD to scan now, a full CommTimeout per wait — the evidence is
// in hand, there is nothing left to probe for. If no acknowledgment ever
// arrives the stall limit aborts. Any other error (an invalid argument, a
// group mismatch at a commit) is no failure's evidence and is returned at
// once, unless the acknowledgment is already on the board.
//
//ftlint:hotpath
func (w *Worker) retry(op func(timeout time.Duration) error) error {
	if !w.hc {
		return op(gaspi.Block)
	}
	w.p.AttentionArm(true)
	err := w.retryArmed(op)
	w.p.AttentionArm(false)
	return err
}

// firstSliceDiv sizes the first slice of an armed blocking call:
// CommTimeout/16, 625 µs at the benchmark's 10 ms. It trades detection of
// an unwitnessed death against probe traffic on healthy waits that outlast
// a slice: on kill_failover, when its ttr_ms_p75 read 3.4 ms, /8 read
// 0.3 ms more with a third of the pings and /64 0.35 ms less with twelve
// times as many; /16 was kept. The slice is a floor the runtime does not
// keep: with every P idle, the netpoller rounds a sub-millisecond timer up
// to 1 ms, so in the quiet after a kill the first slice ran out after a
// median 1.25 ms. That wait was the slow half of kill_failover's
// detections until a killed process became witnessed: its connection
// reset (gaspi.Proc.die) now fails every wait that names it as a source
// (AwaitFrom, the collectives' rounds) at once. The slice and its probe
// remain for the deaths nothing witnesses — a lost node, a partition, a
// downed link — and for waits on a live peer that failed elsewhere.
const firstSliceDiv = 16

func (w *Worker) retryArmed(op func(timeout time.Duration) error) error {
	var detectStart, deadline time.Time
	var hard error
	probed := false
	slice := w.cfg.CommTimeout / firstSliceDiv
	for {
		attemptStart := time.Now()
		err, expired := hard, false
		if hard == nil {
			if err = op(slice); err == nil {
				return nil
			}
			expired = timerExpired(err)
		} else {
			w.nudgeDetector()
			expired = !w.p.AttentionWait(slice)
		}
		if detectStart.IsZero() {
			// OHF1 starts when the process first stalls on the failure,
			// i.e. at the beginning of the attempt that timed out.
			detectStart = attemptStart
			deadline = attemptStart.Add(w.cfg.StallLimit)
		}
		n, nerr := w.checkNotice()
		if nerr != nil {
			return nerr
		}
		if n != nil {
			d := time.Since(detectStart)
			w.rec.Add(trace.PhaseDetect, d)
			w.rec.Inc(CounterDetectNS, int64(d))
			w.countDetection(err, probed)
			// Only a full communication timeout running out beside the
			// board write names a wait the line does not reach; a slice
			// expires beside one by chance.
			return w.acked(n, expired && slice == w.cfg.CommTimeout)
		}
		switch {
		case errors.Is(err, gaspi.ErrConnection), errors.Is(err, gaspi.ErrQueue):
			hard, slice = err, w.cfg.CommTimeout
		case !errors.Is(err, gaspi.ErrTimeout) && !errors.Is(err, gaspi.ErrStaleView):
			// A stale-view error is not returned: the notice that advanced
			// the view is already on the board, so the very next
			// checkNotice resolves it.
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: last error: %w", ErrStalled, err)
		}
		if expired && hard == nil {
			w.probeSuccessor()
			probed = true
			slice = min(2*slice, w.cfg.CommTimeout)
		}
	}
}

// countDetection counts how an acknowledged failure wait began: err is its
// last attempt's error (the latched one, if any), probed whether a slice
// expired and the successor was probed.
func (w *Worker) countDetection(err error, probed bool) {
	switch {
	case errors.Is(err, gaspi.ErrReset):
		w.rec.Inc(trace.KFTDetectReset, 1)
	case errors.Is(err, gaspi.ErrConnection), errors.Is(err, gaspi.ErrQueue):
		w.rec.Inc(trace.KFTDetectNack, 1)
	case probed:
		w.rec.Inc(trace.KFTDetectProbe, 1)
	default:
		w.rec.Inc(trace.KFTDetectAcked, 1)
	}
}

// timerExpired reports whether a blocking attempt ended because its
// communication timeout ran out — not early on the attention line, and not
// with a hard error.
func timerExpired(err error) bool {
	return errors.Is(err, gaspi.ErrTimeout) && !errors.Is(err, gaspi.ErrAttention)
}

// acked reports a failure acknowledgment reaching this worker inside a
// blocking call, and how: found on the board only after the communication
// timeout ran out (the paper's path, here the fallback — a count above
// zero names a wait the line does not reach), or without waiting for that
// timer (woken by the attention line, or already there when a hard error
// sent the worker to look).
func (w *Worker) acked(n *Notice, expired bool) error {
	if expired {
		w.rec.Inc(trace.KFTAckTimedOut, 1)
	} else {
		w.rec.Inc(trace.KFTAckWoken, 1)
	}
	w.rec.Event(trace.KEvFTAck)
	return &FailureDetectedError{Notice: n}
}

// probeSuccessor pings the physical rank of the next logical rank once.
// Only the dead endpoint's NACK is evidence — the same class as a NACKed
// write — and it only moves the FD's next scan forward; a ping that times
// out says the successor is slow or unreachable, which is the FD's to
// judge with its retry budget, and nudges nobody. One successor suffices:
// the allreduces block every rank within an iteration of any death, so the
// victim's ring predecessor is among the blocked. The line does not cut a
// ping short, so behind an unreachable successor an acknowledgment waits
// up to a PingTimeout for this worker.
func (w *Worker) probeSuccessor() {
	if w.fd == NilRank {
		return // nobody to nudge
	}
	succ := w.rm.Phys((w.logical + 1) % w.lay.Workers())
	if succ == w.p.Rank() {
		return
	}
	w.rec.Inc(trace.KFTProbePings, 1)
	if errors.Is(w.p.ProcPing(succ, w.cfg.PingTimeout), gaspi.ErrConnection) {
		w.rec.Inc(trace.KFTProbeNacks, 1)
		w.nudgeDetector()
	}
}

// nudgeDetector asks the FD to scan now: a worker holding a hard
// communication error or its dead successor's NACK has seen a failure
// first-hand, and the FD would otherwise find it only at the end of its
// scan interval. The nudge declares nothing — the FD runs its ordinary scan
// and decides alone. At most one goes out per communication timeout.
func (w *Worker) nudgeDetector() {
	now := time.Now()
	if w.fd == NilRank || now.Sub(w.lastNudge) < w.cfg.CommTimeout {
		return
	}
	w.lastNudge = now
	if w.p.Notify(w.fd, SegBoard, NotifSuspect, 1, SuspectQueue) == nil {
		w.rec.Inc(trace.KFTSuspectNudges, 1)
	}
}

// WriteNotify implements spmvm.Comm.
func (w *Worker) WriteNotify(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	// Posting is non-blocking; failures surface at WaitQueue. The rank is
	// translated at call time so retries after recovery reach the rescue.
	return w.p.WriteNotify(w.rm.Phys(to), seg, off, data, id, val, q)
}

// WriteNotifyFrom implements spmvm.FastComm: the zero-copy post. The
// caller owns the buffer until the queue flush completes; on a flush
// error (the recovery path) the engine is rebuilt with fresh buffers, so
// in-flight references to the old registered region stay read-only.
func (w *Worker) WriteNotifyFrom(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	return w.p.WriteNotifyFrom(w.rm.Phys(to), seg, off, data, id, val, q)
}

// WaitQueue implements spmvm.Comm.
func (w *Worker) WaitQueue(q gaspi.QueueID) error {
	return w.retry(func(t time.Duration) error { return w.p.WaitQueue(q, t) })
}

// AwaitFrom implements spmvm.Comm: the logical sources are translated
// once, for the one wait they name.
func (w *Worker) AwaitFrom(from []int) {
	w.from = w.from[:0]
	for _, l := range from {
		w.from = append(w.from, w.rm.Phys(l))
	}
}

// NotifyWaitsome implements spmvm.Comm. With sources named (AwaitFrom),
// a dead one fails the wait with gaspi.ErrConnection, which retry latches
// and reports to the FD at once.
func (w *Worker) NotifyWaitsome(seg gaspi.SegmentID, begin gaspi.NotificationID, num int) (gaspi.NotificationID, error) {
	var id gaspi.NotificationID
	from := w.from
	w.from = w.from[:0]
	err := w.retry(func(t time.Duration) error {
		var e error
		id, e = w.p.NotifyWaitsomeFrom(seg, begin, num, from, t)
		return e
	})
	return id, err
}

// PassiveSend implements spmvm.Comm. Delivery is at-least-once: a
// gaspi.PassiveSend that times out has already posted its message, and
// retry — the paper's "processes keep on returning with GASPI_TIMEOUT"
// loop — posts it again, so a receiver slow to complete the first copy
// gets two. Receivers must tolerate duplicates (spmvm.Preprocess, the only
// passive-message user, serves each sender once).
func (w *Worker) PassiveSend(to int, data []byte) error {
	return w.retry(func(t time.Duration) error {
		return w.p.PassiveSend(w.rm.Phys(to), data, t)
	})
}

// PassiveReceive implements spmvm.Comm.
func (w *Worker) PassiveReceive() (int, []byte, error) {
	var from Rank
	var data []byte
	err := w.retry(func(t time.Duration) error {
		var e error
		from, data, e = w.p.PassiveReceive(t)
		return e
	})
	if err != nil {
		return -1, nil, err
	}
	logical, ok := w.rm.LogicalOf(from)
	if !ok {
		return -1, nil, fmt.Errorf("ft: passive message from rank %d holding no logical identity", from)
	}
	return logical, data, nil
}

// SetCollectiveHook installs the scenario engine's collective observer;
// see collHook. Must be set before the worker starts communicating.
func (w *Worker) SetCollectiveHook(h func(count int64) (exitNow bool)) { w.collHook = h }

// noteCollective reports one collective call to the hook. A true return
// means the caller must exit(-1) now — the deterministic mid-collective
// fault injection.
func (w *Worker) noteCollective() {
	if w.collHook == nil {
		return
	}
	w.collCount++
	if w.collHook(w.collCount) {
		w.p.Exit(-1)
	}
}

// AllreduceF64 implements spmvm.Comm. A timed-out collective is resumed
// with identical arguments on the next attempt (GASPI timeout semantics),
// so the acknowledgment check between attempts costs nothing when healthy.
func (w *Worker) AllreduceF64(in []float64, op gaspi.ReduceOp) ([]float64, error) {
	w.noteCollective()
	var out []float64
	err := w.retry(func(t time.Duration) error {
		var e error
		out, e = w.p.AllreduceF64(w.gid, in, op, t)
		return e
	})
	return out, err
}

// AllreduceF64Into implements spmvm.CollInto: the allocation-free form on
// the registered-segment fast path, with the same retry/acknowledgment
// wrapping as the other collectives.
func (w *Worker) AllreduceF64Into(in, out []float64, op gaspi.ReduceOp) error {
	w.noteCollective()
	return w.retry(func(t time.Duration) error {
		return w.p.AllreduceF64Into(w.gid, in, out, op, t)
	})
}

// AllreduceI64 implements spmvm.Comm.
func (w *Worker) AllreduceI64(in []int64, op gaspi.ReduceOp) ([]int64, error) {
	w.noteCollective()
	var out []int64
	err := w.retry(func(t time.Duration) error {
		var e error
		out, e = w.p.AllreduceI64(w.gid, in, op, t)
		return e
	})
	return out, err
}

// Barrier implements spmvm.Comm.
func (w *Worker) Barrier() error {
	w.noteCollective()
	return w.retry(func(t time.Duration) error { return w.p.Barrier(w.gid, t) })
}

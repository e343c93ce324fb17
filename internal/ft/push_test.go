package ft

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gaspi"
	"repro/internal/trace"
)

// Tests of the pushed recovery path: the failure acknowledgment wakes a
// blocked worker, a worker holding a NACK wakes the detector, and
// CPStream.Stop wakes the applier. Every timer that used to bound these
// (CommTimeout, ScanInterval, the stream's poll) is set to seconds, so a
// test that passes in milliseconds was woken, not timed out. Ordering is by
// channels and atomics only.

const pushAppSeg gaspi.SegmentID = 2

// pushJob is a three-rank job for the worker-side tests: rank 0 plays the
// detector (body chosen by the test), rank 1 is the worker under test
// (logical 0), rank 2 its only peer (logical 1), which sets up and then
// idles until the test ends. Once both workers hold the group the link
// between them is cut, so whatever the worker posts or awaits stays
// pending without anybody being dead.
type pushJob struct {
	lay     Layout
	cfg     Config
	job     *gaspi.Job
	recs    [3]*trace.Recorder
	grouped sync.WaitGroup
	cut     chan struct{} // closed once the 1–2 link is down
	done    chan struct{} // closed by the test to release the idlers
}

func startPushJob(t *testing.T, cfg Config, detector func(j *pushJob, p *gaspi.Proc) error, worker func(j *pushJob, w *Worker) error) *pushJob {
	t.Helper()
	j := &pushJob{lay: Layout{Procs: 3}, cfg: cfg, cut: make(chan struct{}), done: make(chan struct{})}
	for i := range j.recs {
		j.recs[i] = trace.NewRecorder()
	}
	j.grouped.Add(2)
	j.job = gaspi.Launch(testGaspiCfg(3), func(p *gaspi.Proc) error {
		if err := CreateBoard(p, j.lay); err != nil {
			return err
		}
		if p.Rank() == 0 {
			return detector(j, p)
		}
		w := NewWorker(p, j.lay, cfg, int(p.Rank())-1, true, j.recs[p.Rank()])
		if err := w.CommitInitialGroup(); err != nil {
			return err
		}
		if err := p.SegmentCreate(pushAppSeg, 64); err != nil {
			return err
		}
		j.grouped.Done()
		<-j.cut
		if p.Rank() == 2 {
			<-j.done
			return nil
		}
		return worker(j, w)
	})
	t.Cleanup(j.job.Close)
	j.grouped.Wait()
	j.job.Transport().SetLinkDown(1, 2, true)
	close(j.cut)
	return j
}

// finish releases the idlers and returns the worker's result.
func (j *pushJob) finish(t *testing.T) gaspi.Result {
	t.Helper()
	close(j.done)
	res, ok := j.job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	return res[1]
}

// peerFailedNotice is the acknowledgment a detector would write after
// losing rank 2 with no spare left to replace it — content is irrelevant to
// these tests beyond "a worker failed, epoch 1".
func peerFailedNotice() *Notice {
	return &Notice{
		Epoch:        1,
		Status:       []ProcStatus{StatusDetector, StatusWorking, StatusFailed},
		ActPhys:      []Rank{1, 2},
		NewlyFailed:  []Rank{2},
		WorkerFailed: true,
	}
}

// TestAckWakesBlockedWorker: a worker blocked in each kind of wait, with a
// 5 s communication timeout, returns FailureDetectedError within 200 ms of
// the detector's board write — both when the write lands while it is
// blocked (edge) and when it landed before the wait was entered (level).
func TestAckWakesBlockedWorker(t *testing.T) {
	blockers := []struct {
		name  string
		block func(w *Worker) error
	}{
		{"NotifyWaitsome", func(w *Worker) error {
			_, err := w.NotifyWaitsome(pushAppSeg, 0, 1)
			return err
		}},
		{"WaitQueue", func(w *Worker) error {
			if err := w.WriteNotify(1, pushAppSeg, 0, []byte{1}, 0, 1, 0); err != nil {
				return err
			}
			return w.WaitQueue(0)
		}},
		{"Allreduce", func(w *Worker) error {
			_, err := w.AllreduceI64([]int64{1}, gaspi.OpSum)
			return err
		}},
	}
	for _, b := range blockers {
		for _, landedFirst := range []bool{false, true} {
			name := b.name + "/parked"
			if landedFirst {
				name = b.name + "/landed-first"
			}
			t.Run(name, func(t *testing.T) {
				cfg := testFTCfg()
				cfg.CommTimeout = 5 * time.Second
				cfg.StallLimit = 30 * time.Second
				goWrite := make(chan struct{})
				var wroteAt, took atomic.Int64
				j := startPushJob(t, cfg,
					func(j *pushJob, p *gaspi.Proc) error {
						d := NewDetector(p, j.lay, cfg, j.recs[0])
						d.status[2] = StatusFailed // no board for the "failed" rank
						<-goWrite
						wroteAt.Store(time.Now().UnixNano())
						if err := d.WriteBoards(peerFailedNotice()); err != nil {
							return err
						}
						<-j.done
						return nil
					},
					func(j *pushJob, w *Worker) error {
						close(goWrite)
						if landedFirst {
							for {
								v, err := w.p.NotifyPeek(SegBoard, NotifAck)
								if err != nil {
									return err
								}
								if v != 0 {
									break
								}
								runtime.Gosched()
							}
						}
						err := b.block(w)
						took.Store(time.Now().UnixNano() - wroteAt.Load())
						var fde *FailureDetectedError
						if !errors.As(err, &fde) {
							return fmt.Errorf("blocked call returned %v, want FailureDetectedError", err)
						}
						if fde.Notice.Epoch != 1 {
							return fmt.Errorf("acknowledged epoch %d", fde.Notice.Epoch)
						}
						return nil
					})
				if r := j.finish(t); r.Err != nil {
					t.Fatal(r.Err)
				}
				if d := time.Duration(took.Load()); d > 200*time.Millisecond {
					t.Fatalf("acknowledgment reached the blocked worker after %v (CommTimeout %v)", d, cfg.CommTimeout)
				}
				if n := j.recs[1].Counter(trace.KFTAckWoken); n != 1 {
					t.Fatalf("ft.ack.woken = %d, ft.ack.timed_out = %d", n, j.recs[1].Counter(trace.KFTAckTimedOut))
				}
			})
		}
	}
}

// nackJob is the job of the detector-side tests: rank 0 runs a real
// Detector.Run with a 10 s scan interval (or, with a nil prepare, never
// starts one — a dead FD), rank 1 (logical 0) writes to its halo partner
// rank 2 (logical 1) after that rank was killed, and so holds a NACK nobody
// else knows about.
func startNackJob(t *testing.T, cfg Config, prepare func(d *Detector), worker func(w *Worker, killedAt time.Time) error) (*gaspi.Job, [3]*trace.Recorder) {
	t.Helper()
	return startFaultJob(t, cfg, func(job *gaspi.Job) { job.Kill(2, "test kill -9") }, prepare, worker)
}

// startFaultJob is startNackJob with the fault chosen by the test. It is
// injected once all three ranks are set up and rank 1's one post to rank 2
// has landed and been flushed: whatever the fault does to rank 2, rank 1
// holds no error from it.
func startFaultJob(t *testing.T, cfg Config, fault func(job *gaspi.Job), prepare func(d *Detector), worker func(w *Worker, faultAt time.Time) error) (*gaspi.Job, [3]*trace.Recorder) {
	t.Helper()
	lay := Layout{Procs: 3}
	var recs [3]*trace.Recorder
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	// The fault waits for all three ranks: 1 and 2 grouped, and rank 0's board
	// in place. The survivor's first NotifSuspect nudge goes to that board; on
	// a board not created yet it is refused, and the next one is a CommTimeout
	// away.
	var ready sync.WaitGroup
	ready.Add(3)
	killed := make(chan time.Time, 1)
	job := gaspi.Launch(testGaspiCfg(3), func(p *gaspi.Proc) error {
		if err := CreateBoard(p, lay); err != nil {
			return err
		}
		idle := func() error {
			_, err := p.NotifyWaitsome(SegBoard, NotifShutdown, 1, gaspi.Block)
			return err
		}
		if p.Rank() == 0 {
			ready.Done()
			if prepare == nil {
				return idle()
			}
			d := NewDetector(p, lay, cfg, recs[0])
			prepare(d)
			_, _, err := d.Run()
			return err
		}
		// The segment first: the group commit then orders rank 2's segment
		// before rank 1's post to it.
		if err := p.SegmentCreate(pushAppSeg, 64); err != nil {
			return err
		}
		w := NewWorker(p, lay, cfg, int(p.Rank())-1, true, recs[p.Rank()])
		if err := w.CommitInitialGroup(); err != nil {
			return err
		}
		if p.Rank() == 2 {
			ready.Done()
			return idle() // until shutdown, or the test kills this rank
		}
		if err := writeToPartner(w); err != nil {
			return err
		}
		ready.Done()
		return errors.Join(worker(w, <-killed), SignalShutdown(p, lay))
	})
	t.Cleanup(job.Close)
	ready.Wait()
	fault(job)
	killed <- time.Now()
	return job, recs
}

func writeToPartner(w *Worker) error {
	if err := w.WriteNotify(1, pushAppSeg, 0, []byte{1}, 0, 1, 0); err != nil {
		return err
	}
	return w.WaitQueue(0)
}

// TestNackedSurvivorWakesDetector: with a 10 s scan interval, a worker
// whose write to a dead halo partner was NACKed gets the failure detected
// and acknowledged within a second — its nudge started the scan.
func TestNackedSurvivorWakesDetector(t *testing.T) {
	cfg := testFTCfg()
	cfg.ScanInterval = 10 * time.Second
	cfg.CommTimeout = 5 * time.Second
	cfg.StallLimit = 30 * time.Second
	var killedAt atomic.Int64
	job, recs := startNackJob(t, cfg, func(*Detector) {}, func(w *Worker, at time.Time) error {
		killedAt.Store(at.UnixNano())
		err := writeToPartner(w)
		var fde *FailureDetectedError
		if !errors.As(err, &fde) {
			return fmt.Errorf("NACKed write returned %v, want FailureDetectedError", err)
		}
		return nil
	})
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res[:2] {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	ev, ok := recs[0].FirstEvent(trace.KEvFDDetect)
	if !ok {
		t.Fatal("detector never detected the failure")
	}
	if d := ev.At.Sub(time.Unix(0, killedAt.Load())); d > time.Second {
		t.Fatalf("failure detected %v after the kill (ScanInterval %v)", d, cfg.ScanInterval)
	}
	if recs[0].Counter(trace.KFDScansNudged) == 0 || recs[1].Counter(trace.KFTSuspectNudges) == 0 {
		t.Fatalf("fd.scans.nudged = %d, ft.suspect.nudges = %d",
			recs[0].Counter(trace.KFDScansNudged), recs[1].Counter(trace.KFTSuspectNudges))
	}
	if n := recs[1].Counter(trace.KFTDetectNack); n != 1 {
		t.Fatalf("ft.detect.nack = %d, want 1", n)
	}
}

// TestNudgesArePaced: the detector already lists the dead rank as failed
// (it is on the avoid list), so every scan finds everyone alive and no
// acknowledgment ever comes. The stuck survivor may nudge again, but at
// most once per communication timeout — no scan storm.
func TestNudgesArePaced(t *testing.T) {
	cfg := testFTCfg()
	cfg.ScanInterval = 10 * time.Second
	cfg.CommTimeout = 40 * time.Millisecond
	cfg.StallLimit = 400 * time.Millisecond
	job, recs := startNackJob(t, cfg,
		func(d *Detector) { d.status[2], d.avoid[2] = StatusFailed, true },
		func(w *Worker, _ time.Time) error {
			if err := writeToPartner(w); !errors.Is(err, ErrStalled) {
				return fmt.Errorf("unacknowledged NACK returned %v, want ErrStalled", err)
			}
			return nil
		})
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res[:2] {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	scans, nudged := recs[0].Counter(trace.KFDScans), recs[0].Counter(trace.KFDScansNudged)
	// One nudge at the latch, then at most one per CommTimeout until the
	// stall limit; the 10 s interval contributes none.
	limit := int64(cfg.StallLimit/cfg.CommTimeout) + 2
	if nudged == 0 || scans != nudged || scans > limit {
		t.Fatalf("fd.scans = %d (nudged %d), want 1..%d", scans, nudged, limit)
	}
	if recs[0].Counter(trace.KFDRecoveries) != 0 {
		t.Fatal("a nudge alone declared somebody dead")
	}
}

// TestUnwitnessedDeathNudgesDetector: the partner dies after everything
// posted to it has landed, so the survivor parks waiting for its halo with
// no error in hand and a 10 s scan interval ahead. The first slice of its
// wait expiring sends the ping whose NACK starts the scan that acknowledges
// it — one nudged scan, one nudged recovery, none from the interval.
func TestUnwitnessedDeathNudgesDetector(t *testing.T) {
	cfg := testFTCfg()
	cfg.ScanInterval = 10 * time.Second
	cfg.CommTimeout = 2 * time.Second
	cfg.StallLimit = 30 * time.Second
	job, recs := startNackJob(t, cfg, func(*Detector) {}, func(w *Worker, _ time.Time) error {
		_, err := w.NotifyWaitsome(pushAppSeg, 0, 1)
		var fde *FailureDetectedError
		if !errors.As(err, &fde) {
			return fmt.Errorf("wait for the dead partner's halo returned %v, want FailureDetectedError", err)
		}
		return nil
	})
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res[:2] {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	if n := recs[1].Counter(trace.KFTProbeNacks); n < 1 {
		t.Fatalf("ft.probe.nacks = %d of %d pings", n, recs[1].Counter(trace.KFTProbePings))
	}
	scans, nudged, recovered := recs[0].Counter(trace.KFDScans), recs[0].Counter(trace.KFDScansNudged), recs[0].Counter(trace.KFDRecoveriesNudged)
	if scans != 1 || nudged != 1 || recovered != 1 {
		t.Fatalf("fd.scans = %d, fd.scans.nudged = %d, fd.recoveries.nudged = %d, want 1 each", scans, nudged, recovered)
	}
	if n := recs[1].Counter(trace.KFTAckTimedOut); n != 0 {
		t.Fatalf("ft.ack.timed_out = %d: a slice expiring is not the communication timeout", n)
	}
	if n := recs[1].Counter(trace.KFTDetectProbe); n != 1 {
		t.Fatalf("ft.detect.probe = %d, want 1", n)
	}
}

// TestWitnessedDeathFailsNamedWait: the partner is killed like kill -9 on
// a node that stays up, after everything posted to it has landed. The
// survivor's wait names it as the source it lacks, so its connection
// reset fails the wait at once: no slice expires, no ping goes out, and
// the nudge the survivor sends starts the scan that acknowledges the
// death — one nudged scan, one nudged recovery, none from the interval.
func TestWitnessedDeathFailsNamedWait(t *testing.T) {
	cfg := testFTCfg()
	cfg.ScanInterval = 10 * time.Second
	cfg.CommTimeout = 2 * time.Second
	cfg.StallLimit = 30 * time.Second
	var pings int64
	job, recs := startFaultJob(t, cfg, func(job *gaspi.Job) { job.KillProc(2, "test kill -9") }, func(*Detector) {}, func(w *Worker, _ time.Time) error {
		before := w.rec.Counter(trace.KFTProbePings)
		w.AwaitFrom([]int{1})
		_, err := w.NotifyWaitsome(pushAppSeg, 0, 1)
		pings = w.rec.Counter(trace.KFTProbePings) - before
		var fde *FailureDetectedError
		if !errors.As(err, &fde) {
			return fmt.Errorf("wait for the killed partner's halo returned %v, want FailureDetectedError", err)
		}
		return nil
	})
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res[:2] {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	if pings != 0 {
		t.Fatalf("the wait sent %d probe pings", pings)
	}
	if reset, nack, probe := recs[1].Counter(trace.KFTDetectReset), recs[1].Counter(trace.KFTDetectNack), recs[1].Counter(trace.KFTDetectProbe); reset != 1 || nack != 0 || probe != 0 {
		t.Fatalf("ft.detect.reset = %d, ft.detect.nack = %d, ft.detect.probe = %d, want 1, 0, 0", reset, nack, probe)
	}
	scans, nudged, recovered := recs[0].Counter(trace.KFDScans), recs[0].Counter(trace.KFDScansNudged), recs[0].Counter(trace.KFDRecoveriesNudged)
	if scans != 1 || nudged != 1 || recovered != 1 {
		t.Fatalf("fd.scans = %d, fd.scans.nudged = %d, fd.recoveries.nudged = %d, want 1 each", scans, nudged, recovered)
	}
}

// TestSlowSuccessorIsNeverSuspected: a successor that is alive but posts
// nothing answers every ping; partitioned, it lets them time out. Neither
// is evidence, however many slices expire: no NACK, no nudge, no scan
// outside the interval, nobody declared dead — the waits end on the stall
// limit. A worker whose FD has joined the workers has nobody to nudge and
// sends no ping at all.
func TestSlowSuccessorIsNeverSuspected(t *testing.T) {
	for _, row := range []struct {
		name string
		fd   Rank
	}{{"detector", 0}, {"detector-joined", NilRank}} {
		t.Run(row.name, func(t *testing.T) {
			cfg := testFTCfg()
			cfg.ScanInterval = 10 * time.Second
			cfg.CommTimeout = 64 * time.Millisecond
			cfg.StallLimit = 200 * time.Millisecond
			var job *gaspi.Job
			stall := func(w *Worker) error {
				if _, err := w.NotifyWaitsome(pushAppSeg, 0, 1); !errors.Is(err, ErrStalled) {
					return fmt.Errorf("wait for a silent partner returned %v, want ErrStalled", err)
				}
				return nil
			}
			// The initial group commit may have pinged the successor
			// already (its slices run while the partner catches up); count
			// from after it.
			var before, answered int64
			_, recs := startFaultJob(t, cfg, func(j *gaspi.Job) { job = j }, func(*Detector) {}, func(w *Worker, _ time.Time) error {
				w.fd = row.fd
				before = w.rec.Counter(trace.KFTProbePings)
				if err := stall(w); err != nil {
					return err
				}
				answered = w.rec.Counter(trace.KFTProbePings) - before
				job.Partition(2, true)
				err := stall(w)
				job.Partition(2, false) // let the shutdown signal through
				return err
			})
			res, ok := job.WaitTimeout(60 * time.Second)
			if !ok {
				t.Fatal("job hung")
			}
			for _, r := range res {
				if r.Err != nil {
					t.Fatalf("rank %d: %v", r.Rank, r.Err)
				}
			}
			pings := recs[1].Counter(trace.KFTProbePings) - before
			if row.fd == NilRank {
				if pings != 0 {
					t.Fatalf("ft.probe.pings = %d with no detector to nudge", pings)
				}
			} else if answered == 0 || pings == answered {
				t.Fatalf("ft.probe.pings = %d answered + %d timed out, want both above 0", answered, pings-answered)
			}
			for _, c := range []struct {
				rec *trace.Recorder
				key string
			}{
				{recs[1], trace.KFTProbeNacks}, {recs[1], trace.KFTSuspectNudges},
				{recs[0], trace.KFDScansNudged}, {recs[0], trace.KFDRecoveries},
			} {
				if n := c.rec.Counter(c.key); n != 0 {
					t.Fatalf("%s = %d, want 0: a slow or unreachable rank was suspected", c.key, n)
				}
			}
		})
	}
}

// TestRetryLatchesNackedWrite is the regression for retry reporting
// success for a NACKed write: WaitQueue returns the queue error once and
// clears it, so the re-issued WaitQueue used to return nil and the lost
// halo went unnoticed. With no detector to acknowledge, the only correct
// way out is ErrStalled.
func TestRetryLatchesNackedWrite(t *testing.T) {
	cfg := testFTCfg()
	cfg.StallLimit = 200 * time.Millisecond
	job, _ := startNackJob(t, cfg, nil, func(w *Worker, _ time.Time) error {
		if err := writeToPartner(w); !errors.Is(err, ErrStalled) {
			return fmt.Errorf("NACKed write returned %v, want ErrStalled", err)
		}
		return nil
	})
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	if res[1].Err != nil {
		t.Fatal(res[1].Err)
	}
}

// TestRetryReturnsInvalidAtOnce: an error that is no failure's evidence —
// a 17-element allreduce on a 2-worker group, past the collective's
// 16-element capacity — comes back from retry at once and as itself, not
// latched like a broken connection until the stall limit turns it into
// ErrStalled. The group is left usable: the next collective completes.
func TestRetryReturnsInvalidAtOnce(t *testing.T) {
	cfg := testFTCfg()
	cfg.StallLimit = 5 * time.Second
	lay := Layout{Procs: 3}
	var took [3]atomic.Int64
	job := gaspi.Launch(testGaspiCfg(lay.Procs), func(p *gaspi.Proc) error {
		if err := CreateBoard(p, lay); err != nil {
			return err
		}
		// Rank 0's board exists before the shutdown signal is sent to it.
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			_, err := p.NotifyWaitsome(SegBoard, NotifShutdown, 1, gaspi.Block)
			return err
		}
		w := NewWorker(p, lay, cfg, int(p.Rank())-1, true, trace.NewRecorder())
		if err := w.CommitInitialGroup(); err != nil {
			return err
		}
		t0 := time.Now()
		_, err := w.AllreduceF64(make([]float64, 17), gaspi.OpSum)
		took[p.Rank()].Store(int64(time.Since(t0)))
		if !errors.Is(err, gaspi.ErrInvalid) {
			err = fmt.Errorf("17-element allreduce returned %v, want ErrInvalid", err)
		} else {
			err = w.Barrier()
		}
		if err != nil || w.Logical() == 0 {
			return errors.Join(err, SignalShutdown(p, lay))
		}
		return nil
	})
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	for r := 1; r < 3; r++ {
		if d := time.Duration(took[r].Load()); d > cfg.StallLimit/10 {
			t.Fatalf("rank %d: ErrInvalid came back after %v (StallLimit %v)", r, d, cfg.StallLimit)
		}
	}
}

// TestInitialCommitAcksMissingWorker: a worker that exits instead of
// joining the initial group commit does not leave its partners waiting in
// it. The detector finds the death, and every survivor's commit returns
// the FailureDetectedError well inside a seconds-long stall limit; the
// survivors then rebuild the group with the rescue like after any failure.
func TestInitialCommitAcksMissingWorker(t *testing.T) {
	lay := Layout{Procs: 5, Spares: 1} // the FD, one spare, logicals 0–2
	cfg := testFTCfg()
	cfg.StallLimit = 10 * time.Second
	victim := lay.InitialPhysical(2)
	var started sync.WaitGroup // every rank is past the start-up barrier
	started.Add(lay.Procs)
	gone := make(chan struct{}) // closed once the victim is dead
	var took [5]atomic.Int64
	job := gaspi.Launch(testGaspiCfg(lay.Procs), func(p *gaspi.Proc) error {
		if err := CreateBoard(p, lay); err != nil {
			return err
		}
		// Every board exists before anybody can be told about a failure.
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		started.Done()
		rec := trace.NewRecorder()
		var w *Worker
		var err error
		switch {
		case p.Rank() == 0:
			_, _, err := NewDetector(p, lay, cfg, rec).Run()
			return err
		case p.Rank() == victim:
			started.Wait()
			defer close(gone)
			p.Exit(-1)
		case lay.RoleOf(p.Rank()) == RoleSpare:
			n, logical, shutdown, werr := WaitActivation(p, lay, cfg)
			if werr != nil || shutdown {
				return werr
			}
			w = AdoptIdentity(p, lay, cfg, n, logical, rec)
			err = w.Recover(n)
		default:
			<-gone
			w = NewWorker(p, lay, cfg, int(p.Rank())-1-lay.Spares, true, rec)
			t0 := time.Now()
			err = w.CommitInitialGroup()
			took[p.Rank()].Store(int64(time.Since(t0)))
			var fde *FailureDetectedError
			if errors.As(err, &fde) {
				err = w.Recover(fde.Notice)
			} else {
				err = fmt.Errorf("initial commit returned %v, want FailureDetectedError", err)
			}
		}
		if err == nil {
			err = w.Machine().Resume()
		}
		if err == nil {
			err = w.Barrier()
		}
		if err != nil || w.Logical() == 0 {
			return errors.Join(err, SignalShutdown(p, lay))
		}
		return nil
	})
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil && r.Rank != victim {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	for l := 0; l < 2; l++ {
		r := lay.InitialPhysical(l)
		if d := time.Duration(took[r].Load()); d > cfg.StallLimit/10 {
			t.Fatalf("rank %d: initial commit acknowledged after %v (StallLimit %v)", r, d, cfg.StallLimit)
		}
	}
}

// TestCPStreamStopWakesServe: Stop does not wait out the applier's poll
// (5 s here), and leaves the stream drainable — a frame committed after
// the applier stopped is still folded in by DrainPending and acknowledged.
func TestCPStreamStopWakesServe(t *testing.T) {
	const pollTimeout = 5 * time.Second
	store := newCPStore()
	ready := make(chan struct{})   // receiver's applier is running
	acked := make(chan struct{})   // "first" was served and acknowledged
	stopped := make(chan struct{}) // receiver's applier has stopped
	var stopTook atomic.Int64
	job := gaspi.Launch(testGaspiCfg(2), func(p *gaspi.Proc) error {
		s, err := NewCPStream(p, []gaspi.Rank{p.Rank()}, 0, 0, pollTimeout)
		if err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			<-ready
			if err := s.Push(1, "first", []byte("served by the applier")); err != nil {
				return err
			}
			close(acked)
			<-stopped
			return s.Push(1, "tail", []byte("folded in by DrainPending"))
		}
		go s.Serve(store.put)
		close(ready)
		// Once the sender holds the acknowledgment and the ack queue has
		// drained, the applier is on its way back into the poll.
		<-acked
		for p.QueueOutstanding(CPAckQueue) != 0 {
			runtime.Gosched()
		}
		t0 := time.Now()
		s.Stop()
		stopTook.Store(int64(time.Since(t0)))
		close(stopped)
		for {
			v, err := p.NotifyPeek(SegCP, NotifCPCommit)
			if err != nil {
				return err
			}
			if v != 0 {
				break
			}
			runtime.Gosched()
		}
		s.DrainPending(store.put)
		return nil
	})
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	// Typically tens of microseconds; the bound only has to tell a wake
	// from the 5 s poll on a loaded host.
	if d := time.Duration(stopTook.Load()); d > pollTimeout/10 {
		t.Fatalf("Stop took %v with a %v poll", d, pollTimeout)
	}
	if b, ok := store.get("tail"); !ok || string(b) != "folded in by DrainPending" {
		t.Fatalf("tail frame after Stop: %q, %v", b, ok)
	}
}

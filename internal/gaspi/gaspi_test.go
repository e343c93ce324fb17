package gaspi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
)

const testWait = 30 * time.Second

func testCfg(n int) Config {
	return Config{
		Procs:   n,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
		Seed:    7,
	}
}

// launch runs main on n ranks and returns the results, failing the test on
// hang or on any unexpected error.
func launch(t *testing.T, n int, main func(p *Proc) error) []Result {
	t.Helper()
	job := Launch(testCfg(n), main)
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(testWait)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	return res
}

// launchJob is launch when the test needs the Job for fault injection.
func launchJob(t *testing.T, n int, main func(p *Proc) error) *Job {
	t.Helper()
	job := Launch(testCfg(n), main)
	t.Cleanup(job.Close)
	return job
}

func waitAll(t *testing.T, job *Job) []Result {
	t.Helper()
	res, ok := job.WaitTimeout(testWait)
	if !ok {
		t.Fatal("job hung")
	}
	return res
}

// TestConfigNotifySlotsDefault: past 256 processes the default
// notification array grows to two slots per process, what the spMVM's
// parity-buffered halo scheme needs over every process (spmvm.Split.Bind);
// an explicit size is kept, however small.
func TestConfigNotifySlotsDefault(t *testing.T) {
	for _, c := range []struct{ procs, set, want int }{
		{4, 0, 512}, {256, 0, 512}, {300, 0, 600}, {300, 8, 8},
	} {
		if got := (Config{Procs: c.procs, NotifySlots: c.set}).withDefaults().NotifySlots; got != c.want {
			t.Errorf("Procs %d, NotifySlots %d: default %d, want %d", c.procs, c.set, got, c.want)
		}
	}
}

func TestRankAndSize(t *testing.T) {
	var mu sync.Mutex
	seen := map[Rank]bool{}
	launch(t, 4, func(p *Proc) error {
		if p.NumProcs() != 4 {
			return fmt.Errorf("NumProcs = %d", p.NumProcs())
		}
		mu.Lock()
		seen[p.Rank()] = true
		mu.Unlock()
		return nil
	})
	if len(seen) != 4 {
		t.Fatalf("saw ranks %v", seen)
	}
}

func TestSegmentLifecycle(t *testing.T) {
	launch(t, 1, func(p *Proc) error {
		if err := p.SegmentCreate(3, 128); err != nil {
			return err
		}
		if err := p.SegmentCreate(3, 128); err == nil {
			return errors.New("duplicate create must fail")
		}
		if sz, err := p.SegmentSize(3); err != nil || sz != 128 {
			return fmt.Errorf("size=%d err=%v", sz, err)
		}
		if err := p.SegmentCopyIn(3, 100, []byte("hello")); err != nil {
			return err
		}
		got, err := p.SegmentCopyOut(3, 100, 5)
		if err != nil || string(got) != "hello" {
			return fmt.Errorf("copyout %q err=%v", got, err)
		}
		if err := p.SegmentCopyIn(3, 126, []byte("xyz")); err == nil {
			return errors.New("overflow copy-in must fail")
		}
		if _, err := p.SegmentCopyOut(3, -1, 2); err == nil {
			return errors.New("negative offset must fail")
		}
		if err := p.SegmentDelete(3); err != nil {
			return err
		}
		if err := p.SegmentDelete(3); err == nil {
			return errors.New("double delete must fail")
		}
		return nil
	})
}

func TestWriteAndWaitQueue(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, 64); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := p.Write(1, 1, 8, []byte("payload!"), 0); err != nil {
				return err
			}
			if err := p.WaitQueue(0, Block); err != nil {
				return err
			}
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 1 {
			got, err := p.SegmentCopyOut(1, 8, 8)
			if err != nil {
				return err
			}
			if string(got) != "payload!" {
				return fmt.Errorf("got %q", got)
			}
		}
		return nil
	})
}

func TestWriteNotifyOrdering(t *testing.T) {
	// The written data must be fully visible when the notification fires.
	// The receiver acknowledges each round with a reverse notification so
	// the writer never overwrites an unconsumed round (GASPI guarantees
	// write-before-notify, not flow control).
	const rounds = 50
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, 1024); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		switch p.Rank() {
		case 0:
			for i := 1; i <= rounds; i++ {
				data := make([]byte, 512)
				for j := range data {
					data[j] = byte(i)
				}
				if err := p.WriteNotify(1, 1, 0, data, 5, int64(i), 0); err != nil {
					return err
				}
				if err := p.WaitQueue(0, Block); err != nil {
					return err
				}
				if _, err := p.NotifyWaitsome(1, 6, 1, Block); err != nil {
					return err
				}
				if ack, err := p.NotifyReset(1, 6); err != nil || ack != int64(i) {
					return fmt.Errorf("round %d: ack=%d err=%v", i, ack, err)
				}
			}
		case 1:
			for i := 1; i <= rounds; i++ {
				if _, err := p.NotifyWaitsome(1, 5, 1, Block); err != nil {
					return err
				}
				val, err := p.NotifyReset(1, 5)
				if err != nil {
					return err
				}
				if val != int64(i) {
					return fmt.Errorf("round %d: notification value %d", i, val)
				}
				got, err := p.SegmentCopyOut(1, 0, 512)
				if err != nil {
					return err
				}
				for j, b := range got {
					if b != byte(i) {
						return fmt.Errorf("round %d: stale byte %d at %d", i, b, j)
					}
				}
				if err := p.Notify(0, 1, 6, int64(i), 0); err != nil {
					return err
				}
				if err := p.WaitQueue(0, Block); err != nil {
					return err
				}
			}
		}
		return p.Barrier(GroupAll, Block)
	})
}

func TestNotifyPeekAndReset(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, 8); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := p.Notify(1, 1, 7, 42, 0); err != nil {
				return err
			}
			return p.WaitQueue(0, Block)
		}
		if _, err := p.NotifyWaitsome(1, 7, 1, Block); err != nil {
			return err
		}
		v, err := p.NotifyPeek(1, 7)
		if err != nil || v != 42 {
			return fmt.Errorf("peek=%d err=%v", v, err)
		}
		v, err = p.NotifyReset(1, 7)
		if err != nil || v != 42 {
			return fmt.Errorf("reset=%d err=%v", v, err)
		}
		v, err = p.NotifyPeek(1, 7)
		if err != nil || v != 0 {
			return fmt.Errorf("after reset peek=%d err=%v", v, err)
		}
		return nil
	})
}

func TestNotifyWaitsomeTimeoutAndTest(t *testing.T) {
	launch(t, 1, func(p *Proc) error {
		if err := p.SegmentCreate(1, 8); err != nil {
			return err
		}
		if _, err := p.NotifyWaitsome(1, 0, 4, Test); err != ErrTimeout {
			return fmt.Errorf("Test: %v", err)
		}
		start := time.Now()
		if _, err := p.NotifyWaitsome(1, 0, 4, 10*time.Millisecond); err != ErrTimeout {
			return fmt.Errorf("timeout: %v", err)
		}
		if time.Since(start) < 10*time.Millisecond {
			return errors.New("returned before timeout")
		}
		return nil
	})
}

func TestRemoteBadSegment(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			// Rank 1 never created segment 9.
			if err := p.Write(1, 9, 0, []byte("x"), 0); err != nil {
				return err
			}
			err := p.WaitQueue(0, Block)
			if !errors.Is(err, ErrQueue) {
				return fmt.Errorf("want ErrQueue, got %v", err)
			}
			// A second wait succeeds: errors were consumed.
			if err := p.WaitQueue(0, Block); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestPassive(t *testing.T) {
	launch(t, 3, func(p *Proc) error {
		if p.Rank() == 0 {
			got := map[Rank]string{}
			for i := 0; i < 2; i++ {
				from, data, err := p.PassiveReceive(Block)
				if err != nil {
					return err
				}
				got[from] = string(data)
			}
			if got[1] != "from-1" || got[2] != "from-2" {
				return fmt.Errorf("got %v", got)
			}
			return nil
		}
		return p.PassiveSend(0, []byte(fmt.Sprintf("from-%d", p.Rank())), Block)
	})
}

func TestPassiveReceiveTimeout(t *testing.T) {
	launch(t, 1, func(p *Proc) error {
		_, _, err := p.PassiveReceive(5 * time.Millisecond)
		if err != ErrTimeout {
			return fmt.Errorf("got %v", err)
		}
		return nil
	})
}

func TestProcPingHealthy(t *testing.T) {
	launch(t, 3, func(p *Proc) error {
		for r := Rank(0); int(r) < p.NumProcs(); r++ {
			if err := p.ProcPing(r, time.Second); err != nil {
				return fmt.Errorf("ping %d: %v", r, err)
			}
		}
		return nil
	})
}

// TestLaunchRunsEveryNICOnTheShards: a rank's NIC is its endpoint's
// delivery handler, run by the fabric shard serving the rank, so launching
// N ranks adds their N application goroutines and the shards — no
// goroutine per NIC — and a rank whose application never makes another
// GASPI call still answers pings.
func TestLaunchRunsEveryNICOnTheShards(t *testing.T) {
	const n, shards = 16, 2
	cfg := testCfg(n)
	cfg.FabricShards = shards
	hung := make(chan struct{})
	pinged := make(chan error, 1)
	before := runtime.NumGoroutine()
	job := Launch(cfg, func(p *Proc) error {
		if p.Rank() != 0 {
			<-hung
			return nil
		}
		for r := Rank(1); r < n; r++ {
			if err := p.ProcPing(r, 5*time.Second); err != nil {
				pinged <- fmt.Errorf("ping %d: %v", r, err)
				return nil
			}
		}
		pinged <- nil
		return nil
	})
	t.Cleanup(job.Close)
	added := runtime.NumGoroutine() - before
	if err := <-pinged; err != nil {
		t.Error(err)
	}
	close(hung)
	if _, ok := job.WaitTimeout(10 * time.Second); !ok {
		t.Fatal("job hung")
	}
	// A small allowance for goroutines the runtime or an earlier test
	// starts meanwhile.
	if limit := n + shards + 2; added > limit {
		t.Fatalf("Launch of %d ranks on %d shards added %d goroutines, want at most %d", n, shards, added, limit)
	}
}

func TestProcPingDead(t *testing.T) {
	job := launchJob(t, 3, func(p *Proc) error {
		if p.Rank() == 2 {
			// Block in a GASPI call; Kill unwinds it.
			if err := p.SegmentCreate(1, 8); err != nil {
				return err
			}
			_, err := p.NotifyWaitsome(1, 0, 1, Block)
			return err
		}
		if p.Rank() == 0 {
			// Wait for rank 2's death, then ping it.
			time.Sleep(50 * time.Millisecond)
			err := p.ProcPing(2, time.Second)
			if !errors.Is(err, ErrConnection) {
				return fmt.Errorf("want ErrConnection, got %v", err)
			}
			if p.State(2) != StateCorrupt {
				return errors.New("state vector not marked corrupt")
			}
			if p.State(1) != StateHealthy {
				return errors.New("healthy rank marked corrupt")
			}
		}
		return nil
	})
	time.Sleep(10 * time.Millisecond)
	job.Kill(2, "test")
	res := waitAll(t, job)
	for _, r := range res {
		if r.Rank == 2 {
			if r.Death == nil || !r.Death.Killed {
				t.Fatalf("rank 2 result: %+v", r)
			}
		} else if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

func TestProcPingPartitionedTimesOut(t *testing.T) {
	job := launchJob(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			time.Sleep(200 * time.Millisecond) // stay alive but unreachable
			return nil
		}
		time.Sleep(20 * time.Millisecond)
		err := p.ProcPing(1, 30*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		return nil
	})
	job.Partition(1, true)
	for _, r := range waitAll(t, job) {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

// TestAnswerToDeadAskerFailsNoLocalOp: an answer (here a write ack) that
// reaches a dead asker is NACKed back to the answering rank, carrying the
// asker's token, which names nothing in the answerer's own token space.
// Rank 0 posts its first write (token 1) to rank 1 and exits; rank 1's
// first operation, a ping to the partitioned rank 2, also holds token 1.
// The NACK must mark rank 0 corrupt and leave the ping to time out:
// failing it with ErrConnection would report the live rank 2 dead.
func TestAnswerToDeadAskerFailsNoLocalOp(t *testing.T) {
	cfg := testCfg(3)
	cfg.Latency.Base = 2 * time.Millisecond
	job := Launch(cfg, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			if err := p.Write(1, 1, 0, []byte{1}, 0); err != nil {
				return err
			}
			p.Exit(1)
		case 1:
			p.job.Partition(2, true)
			if err := p.ProcPing(2, 100*time.Millisecond); !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("ping of the partitioned rank 2: want ErrTimeout, got %v", err)
			}
			if p.State(0) != StateCorrupt {
				return errors.New("the dead rank 0 is not marked corrupt")
			}
		case 2:
			time.Sleep(150 * time.Millisecond) // alive, unreachable
		}
		return nil
	})
	t.Cleanup(job.Close)
	for _, r := range waitAll(t, job) {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

func TestProcKill(t *testing.T) {
	job := launchJob(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			// Block forever; ProcKill must unwind this goroutine.
			if err := p.SegmentCreate(1, 8); err != nil {
				return err
			}
			_, err := p.NotifyWaitsome(1, 0, 1, Block)
			return err
		}
		time.Sleep(10 * time.Millisecond)
		return p.ProcKill(1, Block)
	})
	res := waitAll(t, job)
	r1 := res[1]
	if r1.Death == nil || !r1.Death.Killed || r1.Death.ByRank != 0 {
		t.Fatalf("rank 1 result: %+v err=%v", r1.Death, r1.Err)
	}
}

func TestExitCode(t *testing.T) {
	job := launchJob(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit(-1)
		}
		return nil
	})
	res := waitAll(t, job)
	r1 := res[1]
	if r1.Death == nil || !r1.Death.Exited || r1.Death.Code != -1 {
		t.Fatalf("rank 1 result: %+v", r1.Death)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 7
	var arrivals atomic.Int64
	launch(t, n, func(p *Proc) error {
		// The ranks share one OS process, so a plain counter sees every
		// arrival.
		arrivals.Add(1)
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if got := arrivals.Load(); got != n {
			return fmt.Errorf("rank %d saw %d arrivals before barrier exit, want %d", p.Rank(), got, n)
		}
		return nil
	})
}

func TestAllreduceSumMinMax(t *testing.T) {
	const n = 6
	launch(t, n, func(p *Proc) error {
		in := []float64{float64(p.Rank() + 1), float64(-int(p.Rank())), 2.5}
		sum, err := p.AllreduceF64(GroupAll, in, OpSum, Block)
		if err != nil {
			return err
		}
		if sum[0] != 21 || sum[1] != -15 || sum[2] != 15 {
			return fmt.Errorf("sum = %v", sum)
		}
		mn, err := p.AllreduceF64(GroupAll, in, OpMin, Block)
		if err != nil {
			return err
		}
		if mn[0] != 1 || mn[1] != -5 || mn[2] != 2.5 {
			return fmt.Errorf("min = %v", mn)
		}
		mx, err := p.AllreduceF64(GroupAll, in, OpMax, Block)
		if err != nil {
			return err
		}
		if mx[0] != 6 || mx[1] != 0 || mx[2] != 2.5 {
			return fmt.Errorf("max = %v", mx)
		}
		return nil
	})
}

func TestAllreduceI64(t *testing.T) {
	const n = 5
	launch(t, n, func(p *Proc) error {
		in := []int64{int64(p.Rank()), 100 - int64(p.Rank())}
		sum, err := p.AllreduceI64(GroupAll, in, OpSum, Block)
		if err != nil {
			return err
		}
		if sum[0] != 10 || sum[1] != 490 {
			return fmt.Errorf("sum = %v", sum)
		}
		mn, err := p.AllreduceI64(GroupAll, in, OpMin, Block)
		if err != nil {
			return err
		}
		if mn[0] != 0 || mn[1] != 96 {
			return fmt.Errorf("min = %v", mn)
		}
		return nil
	})
}

func TestAllreduceMatchesSequentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(raw [4][3]float64) bool {
		// Constrain magnitudes so tree-order vs sequential-order summation
		// differences stay within relative tolerance.
		var vals [4][3]float64
		for i := range raw {
			for j := range raw[i] {
				v := raw[i][j]
				if v != v || v > 1e100 || v < -1e100 { // NaN/huge
					v = 1
				}
				vals[i][j] = math.Mod(v, 1e6)
			}
		}
		var want [3]float64
		for _, v := range vals {
			for j := range want {
				want[j] += v[j]
			}
		}
		ok := true
		var mu sync.Mutex
		job := Launch(testCfg(4), func(p *Proc) error {
			got, err := p.AllreduceF64(GroupAll, vals[p.Rank()][:], OpSum, Block)
			if err != nil {
				return err
			}
			for j := range want {
				scale := math.Max(1, math.Abs(want[j]))
				if math.Abs(got[j]-want[j]) > 1e-9*scale {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
			return nil
		})
		defer job.Close()
		res, fin := job.WaitTimeout(testWait)
		if !fin {
			return false
		}
		for _, r := range res {
			if r.Err != nil {
				return false
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetGroupAndCollectives(t *testing.T) {
	const n = 6
	const gid GroupID = 4
	members := []Rank{1, 3, 4, 5}
	launch(t, n, func(p *Proc) error {
		in := false
		for _, m := range members {
			if m == p.Rank() {
				in = true
			}
		}
		if !in {
			return nil
		}
		if err := p.GroupCreate(gid); err != nil {
			return err
		}
		for _, m := range members {
			if err := p.GroupAdd(gid, m); err != nil {
				return err
			}
		}
		if err := p.GroupCommit(gid, Block); err != nil {
			return err
		}
		sz, err := p.GroupSize(gid)
		if err != nil || sz != len(members) {
			return fmt.Errorf("size=%d err=%v", sz, err)
		}
		sum, err := p.AllreduceF64(gid, []float64{float64(p.Rank())}, OpSum, Block)
		if err != nil {
			return err
		}
		if sum[0] != 13 { // 1+3+4+5
			return fmt.Errorf("sum = %v", sum)
		}
		return p.Barrier(gid, Block)
	})
}

func TestGroupCommitStaggeredJoin(t *testing.T) {
	// One member delays its commit; the others must block and then succeed.
	const gid GroupID = 2
	launch(t, 3, func(p *Proc) error {
		if err := p.GroupCreate(gid); err != nil {
			return err
		}
		for r := Rank(0); r < 3; r++ {
			if err := p.GroupAdd(gid, r); err != nil {
				return err
			}
		}
		if p.Rank() == 2 {
			time.Sleep(100 * time.Millisecond)
		}
		start := time.Now()
		if err := p.GroupCommit(gid, Block); err != nil {
			return err
		}
		if p.Rank() != 2 && time.Since(start) < 50*time.Millisecond {
			return errors.New("commit returned before all members joined")
		}
		return p.Barrier(gid, Block)
	})
}

func TestGroupCommitTimeout(t *testing.T) {
	// A member that never commits must cause ErrTimeout, not a hang.
	const gid GroupID = 2
	launch(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			time.Sleep(150 * time.Millisecond)
			return nil // never commits
		}
		if err := p.GroupCreate(gid); err != nil {
			return err
		}
		p.GroupAdd(gid, 0)
		p.GroupAdd(gid, 1)
		err := p.GroupCommit(gid, 50*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		return nil
	})
}

func TestGroupCommitNonMember(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		if err := p.GroupCreate(5); err != nil {
			return err
		}
		if err := p.GroupAdd(5, 1); err != nil {
			return err
		}
		if err := p.GroupCommit(5, time.Second); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("want ErrInvalid, got %v", err)
		}
		return nil
	})
}

// TestGroupCommitSendsEachRoundOnce: a commit polled with GASPI_TEST keeps
// its cursor across the ErrTimeout returns, so no attempt re-sends a round
// an earlier one sent, and every round sent is consumed exactly once: ten
// commits of three members, two of them polling, send 10·3·2 kColl
// messages and leave every collBuf empty.
func TestGroupCommitSendsEachRoundOnce(t *testing.T) {
	const n, commits = 3, 10
	job := runJob(t, testCfg(n), func(p *Proc) error {
		for i := 0; i < commits; i++ {
			gid := GroupID(1 + i)
			if err := p.GroupCreate(gid); err != nil {
				return err
			}
			for r := Rank(0); r < n; r++ {
				if err := p.GroupAdd(gid, r); err != nil {
					return err
				}
			}
			timeout := Test
			if p.Rank() == 0 {
				timeout = Block
			}
			for {
				err := p.GroupCommit(gid, timeout)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("commit %d: %w", i, err)
				}
			}
		}
		return nil
	})
	if got, want := job.tr.Stats().PerKind[kColl], uint64(commits*n*collRounds(n)); got != want {
		t.Errorf("%d commit rounds sent, want %d", got, want)
	}
	for r := Rank(0); r < n; r++ {
		p := job.Proc(r)
		p.collMu.Lock()
		left := len(p.collBuf)
		p.collMu.Unlock()
		if left != 0 {
			t.Errorf("rank %d: %d commit rounds left in collBuf", r, left)
		}
	}
}

// TestGroupCommitMembershipMismatch: members keep their GroupAdd order,
// and the handshake's hash covers it. The same set added in two orders
// fails the commit on both sides; a member that receives a round from a
// peer holding another set fails it too (the peers whose rounds never come
// time out).
func TestGroupCommitMembershipMismatch(t *testing.T) {
	const gid GroupID = 3
	commit := func(p *Proc, members []Rank, timeout time.Duration) error {
		if err := p.GroupCreate(gid); err != nil {
			return err
		}
		for _, r := range members {
			if err := p.GroupAdd(gid, r); err != nil {
				return err
			}
		}
		return p.GroupCommit(gid, timeout)
	}
	t.Run("order", func(t *testing.T) {
		launch(t, 2, func(p *Proc) error {
			members := []Rank{0, 1}
			if p.Rank() == 1 {
				members = []Rank{1, 0}
			}
			if err := commit(p, members, Block); !errors.Is(err, ErrGroupMismatch) {
				return fmt.Errorf("want ErrGroupMismatch, got %v", err)
			}
			return nil
		})
	})
	t.Run("set", func(t *testing.T) {
		launch(t, 3, func(p *Proc) error {
			// Rank 1 hears round 0 from rank 0, which holds {0, 1}.
			// Rank 0 waits for rank 1, which sends round 0 to rank 2,
			// and rank 2 waits at round 1 for rank 0, which has none.
			members, want := []Rank{0, 1, 2}, ErrTimeout
			switch p.Rank() {
			case 0:
				members = []Rank{0, 1}
			case 1:
				want = ErrGroupMismatch
			}
			if err := commit(p, members, 200*time.Millisecond); !errors.Is(err, want) {
				return fmt.Errorf("want %v, got %v", want, err)
			}
			return nil
		})
	})
}

func TestGroupDeleteAndRecreate(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		const gid GroupID = 7
		for round := 0; round < 3; round++ {
			if err := p.GroupCreate(gid); err != nil {
				return err
			}
			p.GroupAdd(gid, 0)
			p.GroupAdd(gid, 1)
			if err := p.GroupCommit(gid, Block); err != nil {
				return fmt.Errorf("round %d: %v", round, err)
			}
			if err := p.Barrier(gid, Block); err != nil {
				return err
			}
			p.GroupDelete(gid)
			if err := p.Barrier(GroupAll, Block); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestWriteToDeadRankMarksCorrupt(t *testing.T) {
	job := launchJob(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			if err := p.SegmentCreate(2, 8); err != nil {
				return err
			}
			_, err := p.NotifyWaitsome(2, 0, 1, Block) // until killed
			return err
		}
		if err := p.SegmentCreate(1, 8); err != nil {
			return err
		}
		time.Sleep(50 * time.Millisecond) // rank 1 killed meanwhile
		if err := p.Write(1, 1, 0, []byte{1}, 0); err != nil {
			return err
		}
		err := p.WaitQueue(0, time.Second)
		if !errors.Is(err, ErrQueue) {
			return fmt.Errorf("want ErrQueue, got %v", err)
		}
		if p.State(1) != StateCorrupt {
			return errors.New("state vector not corrupt after NACK")
		}
		return nil
	})
	time.Sleep(10 * time.Millisecond)
	job.Kill(1, "test")
	for _, r := range waitAll(t, job) {
		if r.Rank == 0 && r.Err != nil {
			t.Fatalf("rank 0: %v", r.Err)
		}
	}
}

func TestWaitQueueTimeoutOnPartitionAndPurge(t *testing.T) {
	job := launchJob(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			if err := p.SegmentCreate(1, 8); err != nil {
				return err
			}
			time.Sleep(300 * time.Millisecond)
			return nil
		}
		time.Sleep(30 * time.Millisecond) // partition is up by now
		if err := p.Write(1, 1, 0, []byte{1}, 0); err != nil {
			return err
		}
		err := p.WaitQueue(0, 50*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		if p.QueueOutstanding(0) != 1 {
			return fmt.Errorf("outstanding = %d", p.QueueOutstanding(0))
		}
		p.PurgeQueues()
		if p.QueueOutstanding(0) != 0 {
			return errors.New("purge left outstanding ops")
		}
		// The queue is usable again after the purge.
		if err := p.WaitQueue(0, time.Second); err != nil {
			return err
		}
		return nil
	})
	job.Partition(1, true)
	for _, r := range waitAll(t, job) {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

func TestKillUnblocksWaiters(t *testing.T) {
	job := launchJob(t, 1, func(p *Proc) error {
		if err := p.SegmentCreate(1, 8); err != nil {
			return err
		}
		_, err := p.NotifyWaitsome(1, 0, 1, Block) // blocks forever
		return err
	})
	time.Sleep(20 * time.Millisecond)
	job.Kill(0, "test")
	res := waitAll(t, job)
	if res[0].Death == nil || !res[0].Death.Killed {
		t.Fatalf("result: %+v err=%v", res[0].Death, res[0].Err)
	}
}

func TestSelfWrite(t *testing.T) {
	launch(t, 1, func(p *Proc) error {
		if err := p.SegmentCreate(1, 16); err != nil {
			return err
		}
		if err := p.WriteNotify(0, 1, 0, []byte("loopback"), 0, 1, 0); err != nil {
			return err
		}
		if err := p.WaitQueue(0, Block); err != nil {
			return err
		}
		if _, err := p.NotifyWaitsome(1, 0, 1, Block); err != nil {
			return err
		}
		got, err := p.SegmentCopyOut(1, 0, 8)
		if err != nil || string(got) != "loopback" {
			return fmt.Errorf("got %q err=%v", got, err)
		}
		return nil
	})
}

func TestManyBarriersInSequence(t *testing.T) {
	launch(t, 5, func(p *Proc) error {
		for i := 0; i < 50; i++ {
			if err := p.Barrier(GroupAll, Block); err != nil {
				return fmt.Errorf("barrier %d: %v", i, err)
			}
		}
		return nil
	})
}

func TestMixedCollectivesInSequence(t *testing.T) {
	launch(t, 4, func(p *Proc) error {
		for i := 0; i < 20; i++ {
			if err := p.Barrier(GroupAll, Block); err != nil {
				return err
			}
			v, err := p.AllreduceF64(GroupAll, []float64{1}, OpSum, Block)
			if err != nil {
				return err
			}
			if v[0] != 4 {
				return fmt.Errorf("iter %d: %v", i, v)
			}
		}
		return nil
	})
}

func TestParallelQueues(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, 1024); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for q := QueueID(0); int(q) < p.NumQueues(); q++ {
				if err := p.Write(1, 1, int64(q)*8, []byte{byte(q + 1), 0, 0, 0, 0, 0, 0, 0}, q); err != nil {
					return err
				}
			}
			for q := QueueID(0); int(q) < p.NumQueues(); q++ {
				if err := p.WaitQueue(q, Block); err != nil {
					return err
				}
			}
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 1 {
			for q := 0; q < p.NumQueues(); q++ {
				got, err := p.SegmentCopyOut(1, q*8, 1)
				if err != nil || got[0] != byte(q+1) {
					return fmt.Errorf("queue %d: got %v err=%v", q, got, err)
				}
			}
		}
		return nil
	})
}

func TestShutdownWithBlockedProcs(t *testing.T) {
	job := Launch(testCfg(3), func(p *Proc) error {
		if err := p.SegmentCreate(1, 8); err != nil {
			return err
		}
		_, err := p.NotifyWaitsome(1, 0, 1, Block)
		return err
	})
	time.Sleep(20 * time.Millisecond)
	res := job.Shutdown()
	for _, r := range res {
		if r.Death == nil {
			t.Fatalf("rank %d: expected death, got err=%v", r.Rank, r.Err)
		}
	}
}

func TestStateVecSnapshot(t *testing.T) {
	launch(t, 3, func(p *Proc) error {
		sv := p.StateVec()
		if len(sv) != 3 {
			return fmt.Errorf("len = %d", len(sv))
		}
		for i, s := range sv {
			if s != StateHealthy {
				return fmt.Errorf("rank %d state %v", i, s)
			}
		}
		p.markCorrupt(1)
		if p.State(1) != StateCorrupt {
			return errors.New("not corrupt")
		}
		return nil
	})
}

func TestInvalidArgs(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		if err := p.Write(99, 0, 0, nil, 0); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("bad rank: %v", err)
		}
		if err := p.Write(1, 0, 0, nil, 99); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("bad queue: %v", err)
		}
		if err := p.WriteNotify(1, 0, 0, nil, 0, 0, 0); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("zero notify value: %v", err)
		}
		if err := p.SegmentCreate(0, -1); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("negative size: %v", err)
		}
		if _, err := p.GroupSize(42); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("unknown group: %v", err)
		}
		return nil
	})
}

func TestBarrierResumableAfterTimeout(t *testing.T) {
	// A barrier that times out (peer late) must resume — same sequence
	// number — when called again, per GASPI timeout semantics.
	launch(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			time.Sleep(80 * time.Millisecond)
			return p.Barrier(GroupAll, Block)
		}
		attempts := 0
		for {
			attempts++
			err := p.Barrier(GroupAll, 10*time.Millisecond)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrTimeout) {
				return err
			}
			if attempts > 100 {
				return errors.New("barrier never completed")
			}
		}
		if attempts < 2 {
			return fmt.Errorf("expected timeouts before completion, got %d attempts", attempts)
		}
		return nil
	})
}

func TestAllreduceResumableAfterTimeout(t *testing.T) {
	launch(t, 3, func(p *Proc) error {
		if p.Rank() == 2 {
			time.Sleep(60 * time.Millisecond)
		}
		var out []float64
		for {
			var err error
			out, err = p.AllreduceF64(GroupAll, []float64{1}, OpSum, 5*time.Millisecond)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrTimeout) {
				return err
			}
		}
		if out[0] != 3 {
			return fmt.Errorf("sum = %v", out[0])
		}
		// The group must be reusable for the next collective afterwards.
		out, err := p.AllreduceF64(GroupAll, []float64{2}, OpSum, Block)
		if err != nil {
			return err
		}
		if out[0] != 6 {
			return fmt.Errorf("second sum = %v", out[0])
		}
		return nil
	})
}

func TestMixedInflightCollectiveKindsRejected(t *testing.T) {
	launch(t, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			time.Sleep(50 * time.Millisecond)
			if err := p.Barrier(GroupAll, Block); err != nil {
				return err
			}
			return p.Barrier(GroupAll, Block)
		}
		// Start a barrier, time out, then (incorrectly) try an allreduce:
		// must be rejected because a different collective is in flight.
		if err := p.Barrier(GroupAll, 5*time.Millisecond); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want timeout, got %v", err)
		}
		if _, err := p.AllreduceF64(GroupAll, []float64{1}, OpSum, Block); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("mixed resume not rejected: %v", err)
		}
		// Resuming the barrier is fine.
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		return p.Barrier(GroupAll, Block)
	})
}

func TestConcurrentProcUseIsThreadSafe(t *testing.T) {
	// GASPI advertises thread-safe communication for multi-threaded
	// processes; pings and one-sided writes from several goroutines of the
	// same process must interleave safely (collectives excluded: their call
	// order must be identical on all ranks).
	const n, workers, iters = 3, 4, 25
	// Goroutine g of rank src writes into its own 8-byte slot, and its
	// notifications into its own slot id, at one of the other two ranks.
	slot := func(src Rank, g int) int { return int(src)*workers + g }
	target := func(src Rank, g int) Rank { return Rank((int(src) + 1 + g%2) % n) }
	const plain, notified = 0, 8 * n * workers // the two write regions
	launch(t, n, func(p *Proc) error {
		if err := p.SegmentCreate(1, 2*notified); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		errCh := make(chan error, workers)
		for g := 0; g < workers; g++ {
			go func(g int) {
				died := Protect(func() {
					to, s := target(p.Rank(), g), slot(p.Rank(), g)
					q := QueueID(g % p.NumQueues())
					for i := 1; i <= iters; i++ {
						if err := p.ProcPing(to, time.Second); err != nil {
							errCh <- fmt.Errorf("ping: %w", err)
							return
						}
						if err := p.Write(to, 1, int64(plain+8*s), []byte{byte(i)}, q); err != nil {
							errCh <- fmt.Errorf("write: %w", err)
							return
						}
						if err := p.WaitQueue(q, time.Second); err != nil {
							errCh <- fmt.Errorf("wait: %w", err)
							return
						}
						if err := p.WriteNotify(to, 1, int64(notified+8*s), []byte{byte(i)}, NotificationID(s), int64(i), q); err != nil {
							errCh <- fmt.Errorf("write-notify: %w", err)
							return
						}
						if err := p.WaitQueue(q, time.Second); err != nil {
							errCh <- fmt.Errorf("wait: %w", err)
							return
						}
					}
					errCh <- nil
				})
				if died {
					errCh <- errors.New("unexpected death")
				}
			}(g)
		}
		for g := 0; g < workers; g++ {
			if err := <-errCh; err != nil {
				return err
			}
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		// Every slot aimed here holds its writer's last value in both
		// regions and its last notification; every other slot is untouched.
		for src := Rank(0); src < n; src++ {
			for g := 0; g < workers; g++ {
				s, want := slot(src, g), int64(0)
				if target(src, g) == p.Rank() {
					want = iters
				}
				for _, off := range []int{plain + 8*s, notified + 8*s} {
					b, err := p.SegmentCopyOut(1, off, 1)
					if err != nil {
						return err
					}
					if int64(b[0]) != want {
						return fmt.Errorf("rank %d goroutine %d: byte at %d = %d, want %d", src, g, off, b[0], want)
					}
				}
				if v, err := p.NotifyPeek(1, NotificationID(s)); err != nil || v != want {
					return fmt.Errorf("rank %d goroutine %d: notification %d (err %v), want %d", src, g, v, err, want)
				}
			}
		}
		return nil
	})
}

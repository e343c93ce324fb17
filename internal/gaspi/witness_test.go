package gaspi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
)

// The death witness and the collectives' source rule: a process killed on
// a live node resets its connections (Proc.die), and a wait fails only on
// the death of the rank it waits on, the failure forwarded to whoever
// waits on the failed member (collFailed).

// waitUntil polls cond until it holds, failing the test after testWait.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(testWait); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// idle parks a process until it dies.
func idle(p *Proc) error {
	<-p.Dead()
	return nil
}

// TestResetWitnessScope: a process death on a node that stays up — kill
// -9, exit, a peer's ProcKill — posts one reset to every other rank, and
// each marks the victim corrupt with no traffic of its own. A death
// nothing witnesses (Job.Kill, the share of a node failure) and the job's
// teardown post none.
func TestResetWitnessScope(t *testing.T) {
	const n, victim = 4, Rank(1)
	for _, row := range []struct {
		name      string
		witnessed bool
		kill      func(job *Job)
	}{
		{"KillProc", true, func(job *Job) { job.KillProc(victim, "kill -9") }},
		{"Exit", true, nil},
		{"ProcKill", true, func(job *Job) { _ = job.Proc(0).ProcKill(victim, Block) }},
		{"Kill", false, func(job *Job) { job.Kill(victim, "node failure") }},
		{"Close", false, func(job *Job) { job.Close() }},
		{"Shutdown", false, func(job *Job) { job.Shutdown() }},
	} {
		t.Run(row.name, func(t *testing.T) {
			job := launchJob(t, n, func(p *Proc) error {
				if row.kill == nil && p.Rank() == victim {
					p.Exit(-1)
				}
				return idle(p)
			})
			if row.kill != nil {
				row.kill(job)
			}
			waitUntil(t, "the victim's death", func() bool { return !job.Proc(victim).Alive() })
			if !row.witnessed {
				if got := job.tr.Stats().PerKind[kReset]; got != 0 {
					t.Fatalf("%d resets posted", got)
				}
				return
			}
			waitUntil(t, "a reset to every peer", func() bool { return job.tr.Stats().PerKind[kReset] == n-1 })
			waitUntil(t, "every peer to mark the victim corrupt", func() bool {
				for r := Rank(0); r < n; r++ {
					if r != victim && job.Proc(r).State(victim) != StateCorrupt {
						return false
					}
				}
				return true
			})
		})
	}
}

// TestKillOnFullRingSpillsResets holds the one shard inside the delivery
// of a kill while a producer fills its intake ring and goes on waiting for
// space. Released, the kill's resets are posted from that shard into its
// own full ring: waiting there would deadlock the only goroutine that
// drains it, so they must spill — and still reach every peer.
func TestKillOnFullRingSpillsResets(t *testing.T) {
	const n, victim = 4, Rank(1)
	const depth = 512 // the fabric's intake ring for four endpoints
	cfg := testCfg(n)
	cfg.FabricShards = 1
	job := Launch(cfg, idle)
	t.Cleanup(job.Close)
	entered, gate := make(chan struct{}), make(chan struct{})
	v := job.Proc(victim)
	job.tr.Endpoint(victim).SetSink(func(m fabric.Message, reply fabric.Reply) {
		if m.Kind == kKill {
			close(entered)
			<-gate
		}
		v.nic(m, reply)
	})
	if err := job.Proc(0).ProcKill(victim, Block); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(testWait):
		t.Fatal("the kill was never delivered")
	}
	// The shard sits in the kill's delivery and pops nothing: fill its ring.
	base := job.tr.Stats().Sent
	flooder := job.Proc(2)
	go func() {
		for i := 0; i < depth+64; i++ {
			_ = flooder.ep.Send(3, fabric.Message{Kind: kProbe})
		}
	}()
	waitUntil(t, "a full intake ring", func() bool { return job.tr.Stats().Sent-base > depth })
	close(gate)
	waitUntil(t, "every peer to mark the victim corrupt", func() bool {
		for _, r := range []Rank{0, 2, 3} {
			if job.Proc(r).State(victim) != StateCorrupt {
				return false
			}
		}
		return true
	})
}

// TestNotifyWaitsomeFromFailsOnDeadSource: a wait that names its source
// fails at once when the source's connection resets, even with
// timeout=Block, and says the death was witnessed; a notification the
// source posted before it died is returned first; an unwitnessed death
// leaves the wait to its timeout.
func TestNotifyWaitsomeFromFailsOnDeadSource(t *testing.T) {
	const seg = SegmentID(3)
	for _, row := range []struct {
		name   string
		notify bool // rank 1 notifies rank 0 before it dies
		kill   func(job *Job)
		want   func(err error) bool
	}{
		{"witnessed", false, func(job *Job) { job.KillProc(1, "kill -9") },
			func(err error) bool { return errors.Is(err, ErrConnection) && errors.Is(err, ErrReset) }},
		{"arrived-first", true, func(job *Job) { job.KillProc(1, "kill -9") },
			func(err error) bool { return err == nil }},
		{"unwitnessed", false, func(job *Job) { job.Kill(1, "node failure") },
			func(err error) bool { return errors.Is(err, ErrTimeout) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			ready, killed := make(chan struct{}), make(chan struct{})
			job := launchJob(t, 2, func(p *Proc) error {
				if err := p.SegmentCreate(seg, 8); err != nil {
					return err
				}
				if err := p.Barrier(GroupAll, Block); err != nil {
					return err
				}
				if p.Rank() == 1 {
					if row.notify {
						if err := p.Notify(0, seg, 0, 5, 0); err != nil {
							return err
						}
						if err := p.WaitQueue(0, Block); err != nil {
							return err
						}
					}
					close(ready)
					return idle(p)
				}
				<-killed
				timeout := Block
				if row.name == "unwitnessed" {
					timeout = 20 * time.Millisecond
				}
				if _, err := p.NotifyWaitsomeFrom(seg, 0, 1, []Rank{1}, timeout); !row.want(err) {
					return fmt.Errorf("wait on the dead source returned %v", err)
				}
				return nil
			})
			<-ready
			row.kill(job)
			close(killed)
			if r := waitAll(t, job)[0]; r.Err != nil {
				t.Fatal(r.Err)
			}
		})
	}
}

// TestCollLastMemberTakesLiveParentsForward is the ordered regression of
// a finished allreduce reported failed. Of four members, the root sends
// its broadcast and dies; rank 3's broadcast parent, rank 1, holds its
// forward (collSendHook) until rank 3 has marked the root corrupt. Rank 3
// waits on rank 1 alone, so it takes the forward and completes: the
// root's death is no reason to fail a round whose data comes from a live
// parent. The old rule — any dead member fails every waiter — failed rank
// 3 here on every run.
func TestCollLastMemberTakesLiveParentsForward(t *testing.T) {
	const n = 4
	release := make(chan struct{})
	collSendHook = func(p *Proc, round int) {
		if p.Rank() == 1 && round == 2*collRounds(n)-1 {
			select {
			case <-release:
			case <-p.Dead():
			}
		}
	}
	t.Cleanup(func() { collSendHook = nil })
	job := launchJob(t, n, func(p *Proc) error {
		out, err := p.AllreduceF64(GroupAll, []float64{float64(p.Rank() + 1)}, OpSum, Block)
		if err != nil {
			return fmt.Errorf("allreduce: %w", err)
		}
		if out[0] != 10 {
			return fmt.Errorf("sum %v, want 10", out[0])
		}
		if p.Rank() == 0 {
			p.Exit(-1) // the root's sends are all out
		}
		return nil
	})
	waitUntil(t, "rank 3 to mark the dead root corrupt", func() bool { return job.Proc(3).State(0) == StateCorrupt })
	close(release)
	for _, r := range waitAll(t, job) {
		if r.Rank != 0 && r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

// TestCollMemberDeathMidBarrier is the barrier variant of
// TestCollMemberDeathMidAllreduce: of four members, rank 3 never joins
// and is killed. Ranks 0 and 1 wait on it and fail; rank 2 waits only on
// rank 0, which is alive but failed, and is released promptly by the
// abort rank 0 forwards — with timeout=Block it would wait forever
// otherwise.
func TestCollMemberDeathMidBarrier(t *testing.T) {
	for _, row := range []struct {
		name string
		kill func(job *Job, r Rank)
	}{
		{"witnessed", func(job *Job, r Rank) { job.KillProc(r, "kill -9") }},
		{"unwitnessed", func(job *Job, r Rank) { job.Kill(r, "node failure") }},
	} {
		t.Run(row.name, func(t *testing.T) {
			var mu sync.Mutex
			errs := make(map[Rank]error)
			job := launchJob(t, 4, func(p *Proc) error {
				if p.Rank() == 3 {
					return idle(p)
				}
				start := time.Now()
				err := p.Barrier(GroupAll, Block)
				mu.Lock()
				errs[p.Rank()] = err
				mu.Unlock()
				if d := time.Since(start); d > 10*time.Second {
					return fmt.Errorf("barrier failed after %v — not prompt", d)
				}
				return nil
			})
			time.Sleep(20 * time.Millisecond) // ranks 0–2 are parked in the barrier
			row.kill(job, 3)
			for _, r := range waitAll(t, job) {
				if r.Rank != 3 && r.Err != nil {
					t.Fatalf("rank %d: %v", r.Rank, r.Err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for r := Rank(0); r < 3; r++ {
				if !errors.Is(errs[r], ErrConnBroken) {
					t.Fatalf("rank %d: %v, want ErrConnBroken", r, errs[r])
				}
			}
			if !strings.Contains(errs[2].Error(), "rank 0 forwarded a failure") {
				t.Fatalf("rank 2: %v, want rank 0's forwarded failure", errs[2])
			}
		})
	}
}

// TestCollResumableFailuresForwardNoAbort: a member whose round times out,
// or returns early on its attention line, forwards nothing — it will
// resume — so the members waiting on it are not failed, and the resumed
// call completes with everyone's contribution. Rank 1 waits on rank 3 in
// the first reduce round and still sends to rank 0 and rank 3 later.
func TestCollResumableFailuresForwardNoAbort(t *testing.T) {
	const n = 4
	go3 := make(chan struct{})
	launch(t, n, func(p *Proc) error {
		in := []float64{float64(p.Rank() + 1)}
		check := func(out []float64, err error) error {
			if err != nil {
				return err
			}
			if out[0] != 10 {
				return fmt.Errorf("sum %v, want 10", out[0])
			}
			return nil
		}
		switch p.Rank() {
		case 1:
			timeouts := 0
			for {
				out, err := p.AllreduceF64(GroupAll, in, OpSum, time.Millisecond)
				if errors.Is(err, ErrTimeout) {
					timeouts++
					continue
				}
				if err := check(out, err); err != nil {
					return fmt.Errorf("allreduce resumed after %d timeouts: %w", timeouts, err)
				}
				break
			}
			if timeouts == 0 {
				return errors.New("the straggler never made rank 1 time out")
			}
			p.AttentionArm(true)
			p.AttentionRaise()
			if _, err := p.AllreduceF64(GroupAll, in, OpSum, Block); !errors.Is(err, ErrAttention) {
				return fmt.Errorf("allreduce with the line up returned %v, want ErrAttention", err)
			}
			p.AttentionClear()
			p.AttentionArm(false)
			close(go3)
			return check(p.AllreduceF64(GroupAll, in, OpSum, Block))
		case 3:
			time.Sleep(30 * time.Millisecond) // rank 1 times out meanwhile
			if err := check(p.AllreduceF64(GroupAll, in, OpSum, Block)); err != nil {
				return err
			}
			<-go3
			return check(p.AllreduceF64(GroupAll, in, OpSum, Block))
		default:
			for range 2 {
				if err := check(p.AllreduceF64(GroupAll, in, OpSum, Block)); err != nil {
					return err
				}
			}
			return nil
		}
	})
}

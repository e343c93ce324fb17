package gaspi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The collective regression suite: correctness across group sizes
// (including non-powers-of-two) and vector sizes up to a sub-slot's
// capacity, the refusal of longer ones, resume-after-timeout semantics, prompt
// ErrConnBroken on member death and recommit invalidation. Everything
// runs under -race in CI (bench-smoke job, `-run Coll`).

// runCollJob is launch in a subtest; the "fast" level keeps the test IDs
// stable.
func runCollJob(t *testing.T, n int, main func(p *Proc) error) {
	t.Helper()
	t.Run("fast", func(t *testing.T) { launch(t, n, main) })
}

func TestCollGroupSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 6, 8} {
		n := n
		t.Run(fmt.Sprintf("n-%d", n), func(t *testing.T) {
			runCollJob(t, n, func(p *Proc) error {
				for iter := 0; iter < 5; iter++ {
					if err := p.Barrier(GroupAll, Block); err != nil {
						return err
					}
					in := []float64{float64(p.Rank() + 1), -float64(p.Rank()), 2.5}
					sum, err := p.AllreduceF64(GroupAll, in, OpSum, Block)
					if err != nil {
						return err
					}
					wantSum := float64(n*(n+1)) / 2
					if sum[0] != wantSum || sum[1] != -float64(n*(n-1))/2 || sum[2] != 2.5*float64(n) {
						return fmt.Errorf("sum = %v (n=%d)", sum, n)
					}
					mx, err := p.AllreduceF64(GroupAll, in, OpMax, Block)
					if err != nil {
						return err
					}
					if mx[0] != float64(n) || mx[1] != 0 {
						return fmt.Errorf("max = %v", mx)
					}
					is, err := p.AllreduceI64(GroupAll, []int64{int64(p.Rank()), 7}, OpMin, Block)
					if err != nil {
						return err
					}
					if is[0] != 0 || is[1] != 7 {
						return fmt.Errorf("imin = %v", is)
					}
				}
				return nil
			})
		})
	}
}

// TestCollAllreduceInto checks the allocation-free form and its argument
// validation: a wrong out length and a vector past the group's capacity
// are refused before they pin a sequence number, so the next allreduce
// completes.
func TestCollAllreduceInto(t *testing.T) {
	const n = 3
	runCollJob(t, n, func(p *Proc) error {
		in := []float64{1.25 * float64(p.Rank()+1)}
		out := make([]float64, 1)
		for iter := 0; iter < 10; iter++ {
			if err := p.AllreduceF64Into(GroupAll, in, out, OpSum, Block); err != nil {
				return err
			}
			if out[0] != 1.25*6 {
				return fmt.Errorf("iter %d: out = %v", iter, out)
			}
		}
		if err := p.AllreduceF64Into(GroupAll, in, make([]float64, 2), OpSum, Block); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("length mismatch: %v", err)
		}
		long := make([]float64, collSmallMin+1)
		if err := p.AllreduceF64Into(GroupAll, long, long, OpSum, Block); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("%d-element F64 allreduce: %v", len(long), err)
		}
		if _, err := p.AllreduceI64(GroupAll, make([]int64, collSmallMin+1), OpSum, Block); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("%d-element I64 allreduce: %v", collSmallMin+1, err)
		}
		out[0] = 0
		if err := p.AllreduceF64Into(GroupAll, in, out, OpSum, Block); err != nil {
			return fmt.Errorf("allreduce after the refusals: %w", err)
		}
		if out[0] != 1.25*6 {
			return fmt.Errorf("after the refusals: out = %v", out)
		}
		return nil
	})
}

// TestCollResumeAfterTimeout: a straggler makes the prompt ranks time out;
// re-calling with identical arguments must resume and complete with the
// correct result (GASPI timeout semantics).
func TestCollResumeAfterTimeout(t *testing.T) {
	const n = 3
	runCollJob(t, n, func(p *Proc) error {
		for iter := 0; iter < 3; iter++ {
			if p.Rank() == Rank(iter%3) {
				time.Sleep(40 * time.Millisecond) // straggle a different rank each iter
			}
			timeouts := 0
			for {
				err := p.Barrier(GroupAll, 5*time.Millisecond)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("barrier: %v", err)
				}
				timeouts++
				if timeouts > 1000 {
					return errors.New("barrier never completed")
				}
			}
			if p.Rank() == Rank((iter+1)%3) {
				time.Sleep(40 * time.Millisecond)
			}
			in := []float64{float64(p.Rank()), 1}
			var out []float64
			for {
				var err error
				out, err = p.AllreduceF64(GroupAll, in, OpSum, 5*time.Millisecond)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("allreduce: %v", err)
				}
			}
			if out[0] != 3 || out[1] != 3 {
				return fmt.Errorf("iter %d: out = %v", iter, out)
			}
		}
		return nil
	})
}

// TestCollMemberDeathPromptErrConnBroken: a member killed mid-collective
// must fail the survivors promptly with ErrConnBroken — even with
// timeout=Block, which would hang forever without the fault awareness.
func TestCollMemberDeathPromptErrConnBroken(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		var mu sync.Mutex
		errs := make(map[Rank]error)
		job := launchJob(t, 3, func(p *Proc) error {
			if p.Rank() == 2 {
				// Never joins the collective; killed below.
				if err := p.SegmentCreate(9, 8); err != nil {
					return err
				}
				_, err := p.NotifyWaitsome(9, 0, 1, Block)
				return err
			}
			err := p.Barrier(GroupAll, Block)
			mu.Lock()
			errs[p.Rank()] = err
			mu.Unlock()
			if err == nil {
				return errors.New("barrier with a dead member completed")
			}
			return nil
		})
		time.Sleep(20 * time.Millisecond) // ranks 0 and 1 are parked in the barrier
		job.Kill(2, "test")
		for _, r := range waitAll(t, job) {
			if r.Rank != 2 && r.Err != nil {
				t.Fatalf("rank %d: %v", r.Rank, r.Err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for r, err := range errs {
			if !errors.Is(err, ErrConnBroken) || !errors.Is(err, ErrConnection) {
				t.Fatalf("rank %d: %v, want ErrConnBroken", r, err)
			}
		}
	})
}

// TestCollMemberDeathMidAllreduce is the allreduce variant: the victim
// dies after contributing to some rounds.
func TestCollMemberDeathMidAllreduce(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		job := launchJob(t, 4, func(p *Proc) error {
			if p.Rank() == 3 {
				if err := p.SegmentCreate(9, 8); err != nil {
					return err
				}
				_, err := p.NotifyWaitsome(9, 0, 1, Block)
				return err
			}
			in := []float64{1, 2}
			start := time.Now()
			_, err := p.AllreduceF64(GroupAll, in, OpSum, Block)
			if err == nil {
				return errors.New("allreduce with a dead member completed")
			}
			if !errors.Is(err, ErrConnBroken) {
				return fmt.Errorf("want ErrConnBroken, got %v", err)
			}
			if time.Since(start) > 10*time.Second {
				return fmt.Errorf("ErrConnBroken took %v — not prompt", time.Since(start))
			}
			return nil
		})
		time.Sleep(20 * time.Millisecond)
		job.Kill(3, "test")
		for _, r := range waitAll(t, job) {
			if r.Rank != 3 && r.Err != nil {
				t.Fatalf("rank %d: %v", r.Rank, r.Err)
			}
		}
	})
}

// TestCollKindConfusionI64F64: an in-flight (timed-out) integer allreduce
// must reject a float64 resume — the integer variant carries its own
// in-flight kind tag (collReduceI), so the two can never be confused on
// the same group.
func TestCollKindConfusionI64F64(t *testing.T) {
	const n = 2
	runCollJob(t, n, func(p *Proc) error {
		if p.Rank() == 1 {
			time.Sleep(50 * time.Millisecond)
			out, err := p.AllreduceI64(GroupAll, []int64{5}, OpSum, Block)
			if err != nil {
				return err
			}
			if out[0] != 9 {
				return fmt.Errorf("out = %v", out)
			}
			return nil
		}
		// Rank 0: the first attempt times out (rank 1 is asleep).
		_, err := p.AllreduceI64(GroupAll, []int64{4}, OpSum, time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		// A different collective must be rejected while the I64 is pinned.
		if _, err := p.AllreduceF64(GroupAll, []float64{4}, OpSum, Block); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("F64 during in-flight I64: want ErrInvalid, got %v", err)
		}
		if err := p.Barrier(GroupAll, Block); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("barrier during in-flight I64: want ErrInvalid, got %v", err)
		}
		// Resuming the identical call completes it.
		out, err := p.AllreduceI64(GroupAll, []int64{4}, OpSum, Block)
		if err != nil {
			return err
		}
		if out[0] != 9 {
			return fmt.Errorf("out = %v", out)
		}
		return nil
	})
}

// TestCollRecommitInvalidatesInflight: a timed-out collective abandoned by
// a group delete→recreate→recommit cycle (the recovery pattern) must not
// poison the recreated group's collectives.
func TestCollRecommitInvalidatesInflight(t *testing.T) {
	const gid GroupID = 3
	runCollJob(t, 2, func(p *Proc) error {
		build := func() error { return buildGroup(p, gid, 2) }
		if err := build(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			// Strand a collective mid-flight: rank 1 never joins it.
			if err := p.Barrier(gid, Test); !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("want ErrTimeout, got %v", err)
			}
		}
		// Let the stranded round traffic drain before the teardown.
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		p.GroupDelete(gid)
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if err := build(); err != nil {
			return fmt.Errorf("recommit: %w", err)
		}
		// The recreated group must run collectives cleanly from scratch.
		for i := 0; i < 5; i++ {
			if err := p.Barrier(gid, Block); err != nil {
				return fmt.Errorf("barrier after recommit: %w", err)
			}
			out, err := p.AllreduceF64(gid, []float64{float64(p.Rank() + 1)}, OpSum, Block)
			if err != nil {
				return fmt.Errorf("allreduce after recommit: %w", err)
			}
			if out[0] != 3 {
				return fmt.Errorf("out = %v", out)
			}
		}
		return nil
	})
}

// TestCollSegmentOwnsItsSlots: the collective segment sizes its
// notification array from its own layout, so a job configured with fewer
// application slots than a group's rounds need (5 ranks: 12) still gets
// the one-sided collectives.
func TestCollSegmentOwnsItsSlots(t *testing.T) {
	cfg := testCfg(5)
	cfg.NotifySlots = 8
	runJob(t, cfg, func(p *Proc) error {
		if p.groups[GroupAll].fast == nil {
			return errors.New("GroupAll has no collective segment")
		}
		out, err := p.AllreduceF64(GroupAll, []float64{float64(p.Rank())}, OpSum, Block)
		if err != nil {
			return err
		}
		if out[0] != 10 {
			return fmt.Errorf("sum = %v", out)
		}
		return nil
	})
}

// TestCollFastDeliversViaSink asserts the collective rounds ride
// one-sided writes and notifies into registered memory, not two-sided
// kColl rounds.
func TestCollFastDeliversViaSink(t *testing.T) {
	job := runJob(t, testCfg(4), func(p *Proc) error {
		in := []float64{1, 2, 3}
		for i := 0; i < 20; i++ {
			if err := p.Barrier(GroupAll, Block); err != nil {
				return err
			}
			if _, err := p.AllreduceF64(GroupAll, in, OpSum, Block); err != nil {
				return err
			}
		}
		return nil
	})
	st := job.Transport().Stats()
	if st.PerKind[kColl] != 0 {
		t.Fatalf("run sent %d kColl messages", st.PerKind[kColl])
	}
	if st.PerKind[kWrite]+st.PerKind[kNotify] == 0 {
		t.Fatal("no one-sided writes or notifies — collective rounds missed the fast path")
	}
}

// TestCollSubsetGroupFast: collectives on a committed subset group,
// interleaved with all-group traffic.
func TestCollSubsetGroupFast(t *testing.T) {
	const gid GroupID = 5
	members := []Rank{0, 2, 3}
	runCollJob(t, 5, func(p *Proc) error {
		in := false
		for _, m := range members {
			if m == p.Rank() {
				in = true
			}
		}
		if in {
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
			for i := 0; i < 5; i++ {
				sum, err := p.AllreduceF64(gid, []float64{float64(p.Rank())}, OpSum, Block)
				if err != nil {
					return err
				}
				if sum[0] != 5 { // 0+2+3
					return fmt.Errorf("sum = %v", sum)
				}
				if err := p.Barrier(gid, Block); err != nil {
					return err
				}
			}
		}
		return p.Barrier(GroupAll, Block)
	})
}

// buildGroup creates and commits gid over ranks 0..n-1.
func buildGroup(p *Proc, gid GroupID, n int) error {
	if err := p.GroupCreate(gid); err != nil {
		return err
	}
	for r := Rank(0); int(r) < n; r++ {
		if err := p.GroupAdd(gid, r); err != nil {
			return err
		}
	}
	return p.GroupCommit(gid, Block)
}

// checkCollLayout checks a group's collective segment against the layout
// its member count derives: 4R recv and 4R stage sub-slots of small
// elements, 4R notification slots.
func checkCollLayout(f *collFast, small, bytes int) error {
	if f.small != small || len(f.seg.buf) != bytes || len(f.seg.notifVals) != 4*f.r {
		return fmt.Errorf("%d-element sub-slots, %d bytes, %d notification slots (R = %d); want %d, %d, 4R",
			f.small, len(f.seg.buf), len(f.seg.notifVals), f.r, small, bytes)
	}
	return nil
}

// TestCollDerivedSizesAt64: a 64-member group at the sizes its member
// count derives — sub-slots of 64 elements, 8·8·R·64 bytes = 24 KiB in all,
// 4R notification slots — runs barriers, a scalar allreduce and one of a
// full sub-slot (one element per member, the longest vector the framework
// reduces), and its segment stays as it was. A 4-member group of the same
// job gets the minimum: 16-element sub-slots, 2 KiB.
func TestCollDerivedSizesAt64(t *testing.T) {
	const (
		n     = 64
		bytes = 8 * 8 * 6 * n
	)
	launch(t, n, func(p *Proc) error {
		if p.Rank() < 4 {
			if err := buildGroup(p, 1, 4); err != nil {
				return err
			}
			if err := checkCollLayout(p.groups[1].fast, collSmallMin, 2<<10); err != nil {
				return fmt.Errorf("4-member group: %w", err)
			}
		}
		f := p.groups[GroupAll].fast
		if err := checkCollLayout(f, n, bytes); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := p.Barrier(GroupAll, Block); err != nil {
				return err
			}
			one, err := p.AllreduceF64(GroupAll, []float64{float64(p.Rank())}, OpSum, Block)
			if err != nil {
				return err
			}
			if one[0] != n*(n-1)/2 {
				return fmt.Errorf("sum = %v", one)
			}
			in := make([]int64, n)
			in[p.Rank()] = int64(p.Rank()) + 1
			all, err := p.AllreduceI64(GroupAll, in, OpSum, Block)
			if err != nil {
				return err
			}
			for r, v := range all {
				if v != int64(r)+1 {
					return fmt.Errorf("all[%d] = %d", r, v)
				}
			}
		}
		if err := checkCollLayout(f, n, bytes); err != nil {
			return fmt.Errorf("after the allreduces: %w", err)
		}
		return nil
	})
}

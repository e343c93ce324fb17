package gaspi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
)

// Membership-view reconciliation suite: the versioned-view machinery the
// localized O(degree) repair rests on. A survivor that missed a repair
// must fail fast (ErrStaleView) at its next collective and reconcile by
// adopting the current view — never park in a round with a dead member.
// Covers: fail-fast staleness + GroupAll exemption, non-collective
// adopt-commit, a stale bystander entering a collective mid-repair (the
// repair set already parked in the new group's round), two disjoint
// repairs racing, a survivor that sleeps through two consecutive repairs
// (version skips by 2), and the parked fast-path post stash.

// waitViewJob drains a job and fails the test on any rank error.
func waitViewJob(t *testing.T, job *Job) {
	t.Helper()
	res, ok := job.WaitTimeout(testWait)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

// commitAll creates and handshake-commits a group holding every rank.
func commitAll(p *Proc, gid GroupID, n int) error {
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

// adoptAll creates and adopt-commits (no handshake) a group holding every
// rank.
func adoptAll(p *Proc, gid GroupID, n int) error {
	if err := p.GroupCreate(gid); err != nil {
		return err
	}
	for r := Rank(0); int(r) < n; r++ {
		if err := p.GroupAdd(gid, r); err != nil {
			return err
		}
	}
	return p.GroupAdoptCommit(gid)
}

// TestStaleViewFailsFast: a group committed under an older view fails its
// next collective with ErrStaleView — before any round traffic — while
// GroupAll (exempt by construction) keeps working; a group adopted under
// the current view proceeds. Also pins the view-version monotonicity: a
// lower version never rolls the published view back.
func TestStaleViewFailsFast(t *testing.T) {
	const n = 3
	const gidOld, gidNew GroupID = 30, 31
	runCollJob(t, n, func(p *Proc) error {
		if err := commitAll(p, gidOld, n); err != nil {
			return err
		}
		if err := p.Barrier(gidOld, Block); err != nil {
			return err
		}
		p.SetViewVersion(5)
		if err := p.Barrier(gidOld, Block); !errors.Is(err, ErrStaleView) {
			return fmt.Errorf("barrier on stale group: %v, want ErrStaleView", err)
		}
		if _, err := p.AllreduceF64(gidOld, []float64{1}, OpSum, Block); !errors.Is(err, ErrStaleView) {
			return fmt.Errorf("allreduce on stale group: %v, want ErrStaleView", err)
		}
		p.SetViewVersion(3) // lower: must be ignored
		if v := p.ViewVersion(); v != 5 {
			return fmt.Errorf("view version rolled back to %d", v)
		}
		// GroupAll is exempt: the ft-layer board traffic must keep flowing
		// during repairs.
		if err := p.Barrier(GroupAll, Block); err != nil {
			return fmt.Errorf("GroupAll barrier under a moved view: %w", err)
		}
		// A group adopted under the current view proceeds.
		if err := adoptAll(p, gidNew, n); err != nil {
			return err
		}
		sum, err := p.AllreduceF64(gidNew, []float64{float64(p.Rank() + 1)}, OpSum, Block)
		if err != nil {
			return err
		}
		if want := float64(n*(n+1)) / 2; sum[0] != want {
			return fmt.Errorf("adopted-group sum = %v, want %v", sum[0], want)
		}
		return nil
	})
}

// TestGroupAdoptCommitErrors pins the adopt-commit preconditions: the
// group must exist, be uncommitted, and contain the adopting rank.
func TestGroupAdoptCommitErrors(t *testing.T) {
	job := Launch(testCfg(2), func(p *Proc) error {
		if p.Rank() != 0 {
			return p.Barrier(GroupAll, Block)
		}
		if err := p.GroupAdoptCommit(77); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("adopt of unknown group: %v, want ErrInvalid", err)
		}
		// Non-member adopt: a group holding only rank 1.
		if err := p.GroupCreate(78); err != nil {
			return err
		}
		if err := p.GroupAdd(78, 1); err != nil {
			return err
		}
		if err := p.GroupAdoptCommit(78); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("non-member adopt: %v, want ErrInvalid", err)
		}
		// Double commit.
		if err := p.GroupCreate(79); err != nil {
			return err
		}
		for r := Rank(0); r < 2; r++ {
			if err := p.GroupAdd(79, r); err != nil {
				return err
			}
		}
		if err := p.GroupAdoptCommit(79); err != nil {
			return err
		}
		if err := p.GroupAdoptCommit(79); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("adopt of committed group: %v, want ErrInvalid", err)
		}
		return p.Barrier(GroupAll, Block)
	})
	t.Cleanup(job.Close)
	waitViewJob(t, job)
}

// TestStaleViewSurvivorMidRepair: the repair set adopts the new group and
// parks in its first collective while a bystander still holds the old
// group. The bystander's next collective on the old group fails stale; it
// adopts the new group and the parked collective completes. The early
// adopters' fast-path round posts reach the bystander before its segment
// exists — the pendingColl stash/replay path.
func TestStaleViewSurvivorMidRepair(t *testing.T) {
	const n = 4
	const gidOld, gidNew GroupID = 40, 41
	runCollJob(t, n, func(p *Proc) error {
		if err := commitAll(p, gidOld, n); err != nil {
			return err
		}
		if err := p.Barrier(gidOld, Block); err != nil {
			return err
		}
		late := p.Rank() == n-1
		if late {
			// Let the repair set adopt and park in the new group's round
			// first (correctness does not depend on this window — only the
			// parked-peers coverage does).
			time.Sleep(20 * time.Millisecond)
		}
		p.SetViewVersion(1)
		if late {
			if err := p.Barrier(gidOld, Block); !errors.Is(err, ErrStaleView) {
				return fmt.Errorf("stale survivor's collective: %v, want ErrStaleView", err)
			}
		}
		if err := adoptAll(p, gidNew, n); err != nil {
			return err
		}
		sum, err := p.AllreduceF64(gidNew, []float64{float64(p.Rank() + 1)}, OpSum, Block)
		if err != nil {
			return err
		}
		if want := float64(n*(n+1)) / 2; sum[0] != want {
			return fmt.Errorf("post-repair sum = %v, want %v", sum[0], want)
		}
		return p.Barrier(gidNew, Block)
	})
}

// TestDisjointRepairsRacing: two halves of the job repair disjoint groups
// concurrently — each half bumps its view, adopts its replacement group,
// and runs collectives on it while the other half does the same. No
// cross-talk: both old groups are stale afterwards, both new groups
// reduce correctly.
func TestDisjointRepairsRacing(t *testing.T) {
	const n = 6
	runCollJob(t, n, func(p *Proc) error {
		half := 0
		if int(p.Rank()) >= n/2 {
			half = 1
		}
		gidOld := GroupID(50 + half)
		gidNew := GroupID(52 + half)
		base := Rank(half * n / 2)
		commitHalf := func(gid GroupID, adopt bool) error {
			if err := p.GroupCreate(gid); err != nil {
				return err
			}
			for r := base; r < base+Rank(n/2); r++ {
				if err := p.GroupAdd(gid, r); err != nil {
					return err
				}
			}
			if adopt {
				return p.GroupAdoptCommit(gid)
			}
			return p.GroupCommit(gid, Block)
		}
		if err := commitHalf(gidOld, false); err != nil {
			return err
		}
		if err := p.Barrier(gidOld, Block); err != nil {
			return err
		}
		p.SetViewVersion(1)
		if err := commitHalf(gidNew, true); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			sum, err := p.AllreduceF64(gidNew, []float64{float64(p.Rank() + 1)}, OpSum, Block)
			if err != nil {
				return err
			}
			want := 0.0
			for r := base; r < base+Rank(n/2); r++ {
				want += float64(r + 1)
			}
			if sum[0] != want {
				return fmt.Errorf("half %d sum = %v, want %v", half, sum[0], want)
			}
			if err := p.Barrier(gidNew, Block); err != nil {
				return err
			}
		}
		if err := p.Barrier(gidOld, Block); !errors.Is(err, ErrStaleView) {
			return fmt.Errorf("old half-group: %v, want ErrStaleView", err)
		}
		return p.Barrier(GroupAll, Block)
	})
}

// TestViewSkipsTwoRepairs: a survivor sleeps through two consecutive
// repairs. The active ranks' first replacement group times out (the
// sleeper never adopts it), goes stale when the second repair bumps the
// view again, and is abandoned for the final group. The sleeper wakes to
// a version that skipped by 2 and reconciles against the LATEST view
// directly — it never has to visit the intermediate group.
func TestViewSkipsTwoRepairs(t *testing.T) {
	const n = 4
	const gid0, gid1, gid2 GroupID = 60, 61, 62
	runCollJob(t, n, func(p *Proc) error {
		if err := commitAll(p, gid0, n); err != nil {
			return err
		}
		if err := p.Barrier(gid0, Block); err != nil {
			return err
		}
		sleeper := p.Rank() == n-2
		if !sleeper {
			// First repair: adopt gid1 and try a round. The sleeper never
			// joins, so the collective can only time out.
			p.SetViewVersion(1)
			if err := adoptAll(p, gid1, n); err != nil {
				return err
			}
			_, err := p.AllreduceF64(gid1, []float64{1}, OpSum, 30*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("round missing the sleeper: %v, want ErrTimeout", err)
			}
			// Second repair while the first is still incomplete: gid1 is
			// now stale mid-flight; abandon it.
			p.SetViewVersion(2)
			if _, err := p.AllreduceF64(gid1, []float64{1}, OpSum, Block); !errors.Is(err, ErrStaleView) {
				return fmt.Errorf("resumed round on a superseded group: %v, want ErrStaleView", err)
			}
			p.GroupDelete(gid1)
			if err := adoptAll(p, gid2, n); err != nil {
				return err
			}
		} else {
			time.Sleep(100 * time.Millisecond)
			p.SetViewVersion(2) // both notices arrive at once: 0 -> 2
			if err := p.Barrier(gid0, Block); !errors.Is(err, ErrStaleView) {
				return fmt.Errorf("sleeper's collective after skip-by-2: %v, want ErrStaleView", err)
			}
			if err := adoptAll(p, gid2, n); err != nil {
				return err
			}
		}
		sum, err := p.AllreduceF64(gid2, []float64{float64(p.Rank() + 1)}, OpSum, Block)
		if err != nil {
			return err
		}
		if want := float64(n*(n+1)) / 2; sum[0] != want {
			return fmt.Errorf("final-view sum = %v, want %v", sum[0], want)
		}
		return p.Barrier(gid2, Block)
	})
}

// TestPendingCollStash pins the parked-post stash mechanics: FIFO order
// per segment, emptied by take, purged keys independent, and the global
// cap counting (not storing) overflow.
func TestPendingCollStash(t *testing.T) {
	job := Launch(testCfg(1), func(p *Proc) error {
		mk := func(seg SegmentID, tag int64) fabric.Message {
			return fabric.Message{Kind: kWrite, Args: [4]int64{int64(seg), tag, 0, 0}}
		}
		p.stashPendingColl(mk(-3, 1))
		p.stashPendingColl(mk(-3, 2))
		p.stashPendingColl(mk(-4, 9))
		got := p.takePendingColl(-3)
		if len(got) != 2 || got[0].Args[1] != 1 || got[1].Args[1] != 2 {
			return fmt.Errorf("take(-3) = %v, want tags [1 2] in order", got)
		}
		if again := p.takePendingColl(-3); len(again) != 0 {
			return fmt.Errorf("second take(-3) returned %d entries", len(again))
		}
		if other := p.takePendingColl(-4); len(other) != 1 || other[0].Args[1] != 9 {
			return fmt.Errorf("take(-4) = %v, want tag [9]", other)
		}
		for i := 0; i < pendCollMax+5; i++ {
			p.stashPendingColl(mk(-5, int64(i)))
		}
		if n := p.pendCollDrop.Load(); n != 5 {
			return fmt.Errorf("dropped %d over-cap posts, want 5", n)
		}
		if kept := p.takePendingColl(-5); len(kept) != pendCollMax {
			return fmt.Errorf("kept %d capped posts, want %d", len(kept), pendCollMax)
		}
		return nil
	})
	t.Cleanup(job.Close)
	waitViewJob(t, job)
}

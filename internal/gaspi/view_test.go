package gaspi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Membership-view suite: a survivor that has not yet acted on a failure
// notice must fail fast (ErrStaleView) at its next collective and reconcile
// by committing the current view's group — never park in a round with a
// dead member. The non-collective adopt-commit these tests were written
// around is gone, with TestGroupAdoptCommitErrors, TestPendingCollStash and
// TestDisjointRepairsRacing: there is one commit primitive, the handshake.

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

// commitAll creates a group holding every rank and handshake-commits it
// within timeout.
func commitAll(p *Proc, gid GroupID, n int, timeout time.Duration) error {
	if err := p.GroupCreate(gid); err != nil {
		return err
	}
	for r := Rank(0); int(r) < n; r++ {
		if err := p.GroupAdd(gid, r); err != nil {
			return err
		}
	}
	return p.GroupCommit(gid, timeout)
}

// TestStaleViewFailsFast: a group committed under an older view fails its
// next collective with ErrStaleView — before any round traffic — while
// GroupAll (exempt by construction) keeps working; a group committed under
// the current view proceeds. Also pins the view-version monotonicity: a
// lower version never rolls the published view back.
func TestStaleViewFailsFast(t *testing.T) {
	const n = 3
	const gidOld, gidNew GroupID = 30, 31
	runCollJob(t, n, func(p *Proc) error {
		if err := commitAll(p, gidOld, n, Block); err != nil {
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
		// A group committed under the current view proceeds.
		if err := commitAll(p, gidNew, n, Block); err != nil {
			return err
		}
		sum, err := p.AllreduceF64(gidNew, []float64{float64(p.Rank() + 1)}, OpSum, Block)
		if err != nil {
			return err
		}
		if want := float64(n*(n+1)) / 2; sum[0] != want {
			return fmt.Errorf("new-view group sum = %v, want %v", sum[0], want)
		}
		return nil
	})
}

// TestStaleViewSurvivorMidRepair: everyone else is already parked in the
// new group's commit handshake while a late survivor still holds the old
// group. Its next collective on the old group fails stale; it commits the
// new group and the parked handshake completes. The others' commit rounds
// reached it before it created the group: two-sided round messages, which
// wait in its round buffer — no fast-path post can precede its own commit.
func TestStaleViewSurvivorMidRepair(t *testing.T) {
	const n = 4
	const gidOld, gidNew GroupID = 40, 41
	runCollJob(t, n, func(p *Proc) error {
		if err := commitAll(p, gidOld, n, Block); err != nil {
			return err
		}
		if err := p.Barrier(gidOld, Block); err != nil {
			return err
		}
		late := p.Rank() == n-1
		if late {
			// Let the others park in the new group's commit first
			// (correctness does not depend on this window — only the
			// parked-peers coverage does).
			time.Sleep(20 * time.Millisecond)
		}
		p.SetViewVersion(1)
		if late {
			if err := p.Barrier(gidOld, Block); !errors.Is(err, ErrStaleView) {
				return fmt.Errorf("stale survivor's collective: %v, want ErrStaleView", err)
			}
		}
		if err := commitAll(p, gidNew, n, Block); err != nil {
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

// TestViewSkipsTwoRepairs: a survivor sleeps through two consecutive
// repairs. The active ranks' first replacement group cannot commit (the
// sleeper never joins the handshake), is superseded when the second repair
// bumps the view again, and is abandoned mid-commit for the final group.
// The sleeper wakes to a version that skipped by 2 and reconciles against
// the LATEST view directly — it never has to visit the intermediate group.
func TestViewSkipsTwoRepairs(t *testing.T) {
	const n = 4
	const gid0, gid1, gid2 GroupID = 60, 61, 62
	runCollJob(t, n, func(p *Proc) error {
		if err := commitAll(p, gid0, n, Block); err != nil {
			return err
		}
		if err := p.Barrier(gid0, Block); err != nil {
			return err
		}
		sleeper := p.Rank() == n-2
		if !sleeper {
			// First repair: create gid1 and try to commit it. The sleeper
			// never joins, so the handshake can only time out.
			p.SetViewVersion(1)
			if err := commitAll(p, gid1, n, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("commit missing the sleeper: %v, want ErrTimeout", err)
			}
			// Second repair while the first is still incomplete: abandon
			// gid1 mid-commit.
			p.SetViewVersion(2)
			p.GroupDelete(gid1)
			if _, err := p.AllreduceF64(gid0, []float64{1}, OpSum, Block); !errors.Is(err, ErrStaleView) {
				return fmt.Errorf("collective on the twice-superseded group: %v, want ErrStaleView", err)
			}
		} else {
			time.Sleep(100 * time.Millisecond)
			p.SetViewVersion(2) // both notices arrive at once: 0 -> 2
			if err := p.Barrier(gid0, Block); !errors.Is(err, ErrStaleView) {
				return fmt.Errorf("sleeper's collective after skip-by-2: %v, want ErrStaleView", err)
			}
		}
		if err := commitAll(p, gid2, n, Block); err != nil {
			return err
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

// TestStragglerPostToDeletedGroupDropped: a straggler's fire-and-forget
// collective post (token-0 kWrite / kNotify) for a group this rank already
// deleted is dropped like any write to a missing segment — no reply, nothing
// kept — and the id stays usable: GroupCreate + GroupCommit of it with live
// peers completes.
func TestStragglerPostToDeletedGroupDropped(t *testing.T) {
	const n = 3
	const gid GroupID = 70
	const fenceSeg SegmentID = 5
	launch(t, n, func(p *Proc) error {
		if err := commitAll(p, gid, n, Block); err != nil {
			return err
		}
		if err := p.Barrier(gid, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := p.SegmentCreate(fenceSeg, 8); err != nil {
				return err
			}
			p.GroupDelete(gid)
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 1 {
			// The straggler still holds the group. The other ranks sit in a
			// GroupAll barrier meanwhile, whose rounds are token-0 posts
			// themselves: the one acknowledgment on the fabric is the fence's.
			g, err := p.groupLookup(gid)
			if err != nil {
				return err
			}
			acks := p.job.tr.Stats().PerKind[kWriteAck]
			p.collDataPost(0, g.fast, 0, make([]byte, 8), 0, 1)
			p.collNotifyPost(0, g.fast, 1, 1)
			// Fence: per-pair FIFO delivery puts this tracked notification
			// behind both posts, so its completion means they were handled.
			if err := p.Notify(0, fenceSeg, 0, 1, 0); err != nil {
				return err
			}
			if err := p.WaitQueue(0, Block); err != nil {
				return err
			}
			if got := p.job.tr.Stats().PerKind[kWriteAck] - acks; got != 1 {
				return fmt.Errorf("%d acknowledgments in the window, want 1 (the fence's): a dropped post was answered", got)
			}
		}
		// Every old instance goes before anybody recreates the id: a rank still
		// holding it would drop a recommit round as a duplicate.
		p.GroupDelete(gid)
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			if _, err := p.segLookup(collSegID(gid)); err == nil {
				return errors.New("a post to the deleted group's segment brought it back")
			}
		}
		if err := commitAll(p, gid, n, Block); err != nil {
			return fmt.Errorf("recommit of the reused group id: %w", err)
		}
		sum, err := p.AllreduceF64(gid, []float64{float64(p.Rank() + 1)}, OpSum, Block)
		if err != nil {
			return err
		}
		if want := float64(n*(n+1)) / 2; sum[0] != want {
			return fmt.Errorf("sum on the recreated group = %v, want %v", sum[0], want)
		}
		return p.Barrier(gid, Block)
	})
}

package gaspi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// The attention line's contract, wait by wait: an armed wait returns
// ErrAttention (an ErrTimeout) when the watched notification lands, at once
// when it landed before; a disarmed wait is not disturbed; arming wakes a
// wait that parked disarmed. Timeouts are Block throughout, so a wait that
// returns was woken.

const (
	attnSeg  SegmentID      = 1
	attnSlot NotificationID = 0
)

// attnGroup is ranks {0, 1}: the barrier rank 0 waits in alone.
const attnGroup GroupID = 20

// attnWaits are the blocking calls of rank 0 in a three-rank job where
// nobody notifies slot 5, the link to rank 2 is down (a write to it stays
// outstanding), and nobody joins the barrier or sends a passive message.
var attnWaits = []struct {
	name string
	wait func(p *Proc, timeout time.Duration) error
}{
	{"NotifyWaitsome", func(p *Proc, t time.Duration) error {
		_, err := p.NotifyWaitsome(attnSeg, 5, 1, t)
		return err
	}},
	{"WaitQueue", func(p *Proc, t time.Duration) error { return p.WaitQueue(0, t) }},
	{"Barrier", func(p *Proc, t time.Duration) error { return p.Barrier(attnGroup, t) }},
	{"PassiveReceive", func(p *Proc, t time.Duration) error {
		_, _, err := p.PassiveReceive(t)
		return err
	}},
}

// attnJob runs body on rank 0 after the setup above; rank 1 notifies the
// watched slot once per receive on poke, then joins the barrier rank 0 was
// cut short in, which completes when resumed.
func attnJob(t *testing.T, body func(p *Proc, poke chan<- struct{}) error) {
	t.Helper()
	poke := make(chan struct{})
	done := make(chan struct{})
	// Rank 0 cuts its link to rank 2 only once rank 2 is through the opening
	// barrier: rank 0's last barrier post to it may still be in flight when
	// rank 0 itself is done, and a cut link drops it.
	through := make(chan struct{})
	launch(t, 3, func(p *Proc) error {
		if err := p.SegmentCreate(attnSeg, 64); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 2 {
			close(through)
			<-done // alive, so the write to it is dropped, not NACKed
			return nil
		}
		if err := p.GroupCreate(attnGroup); err != nil {
			return err
		}
		for r := Rank(0); r < 2; r++ {
			if err := p.GroupAdd(attnGroup, r); err != nil {
				return err
			}
		}
		if err := p.GroupCommit(attnGroup, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			<-through
			p.job.tr.SetLinkDown(0, 2, true)
			if err := p.Write(2, attnSeg, 0, []byte{1}, 0); err != nil {
				return err
			}
			err := body(p, poke)
			close(poke)
			close(done)
			if err != nil {
				return err
			}
			return p.Barrier(attnGroup, Block)
		}
		for range poke {
			if err := p.Notify(0, attnSeg, attnSlot, 1, 0); err != nil {
				return err
			}
			if err := p.WaitQueue(0, Block); err != nil {
				return err
			}
		}
		return p.Barrier(attnGroup, 5*time.Second) // rank 0 may have failed
	})
}

func TestAttentionWakesArmedWaits(t *testing.T) {
	attnJob(t, func(p *Proc, poke chan<- struct{}) error {
		if err := p.AttentionWatch(attnSeg, attnSlot); err != nil {
			return err
		}
		p.AttentionArm(true)
		defer p.AttentionArm(false)
		for _, w := range attnWaits {
			poke <- struct{}{}
			if err := w.wait(p, Block); !errors.Is(err, ErrAttention) || !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("%s: woken wait returned %v, want ErrAttention", w.name, err)
			}
			// Level: still raised, so entering again returns at once.
			if err := w.wait(p, Block); !errors.Is(err, ErrAttention) {
				return fmt.Errorf("%s: wait entered with the line raised returned %v", w.name, err)
			}
			p.AttentionClear()
			if _, err := p.NotifyReset(attnSeg, attnSlot); err != nil {
				return err
			}
			// Lowered: the timeout is the only way out again.
			if err := w.wait(p, 20*time.Millisecond); err != ErrTimeout {
				return fmt.Errorf("%s: wait with the line lowered returned %v, want ErrTimeout", w.name, err)
			}
		}
		return nil
	})
}

func TestAttentionDisarmedWaitsUndisturbed(t *testing.T) {
	attnJob(t, func(p *Proc, poke chan<- struct{}) error {
		if err := p.AttentionWatch(attnSeg, attnSlot); err != nil {
			return err
		}
		poke <- struct{}{}
		if !p.AttentionWait(Block) {
			return errors.New("AttentionWait(Block) returned false")
		}
		for _, w := range attnWaits {
			if err := w.wait(p, 20*time.Millisecond); err != ErrTimeout {
				return fmt.Errorf("%s: disarmed wait returned %v with the line raised, want ErrTimeout", w.name, err)
			}
		}
		// A ping is never cut short, armed or not: an early return would
		// read as a suspicion.
		p.AttentionArm(true)
		defer p.AttentionArm(false)
		if err := p.ProcPing(1, Block); err != nil {
			return fmt.Errorf("armed ping with the line raised: %v", err)
		}
		p.AttentionClear()
		if p.AttentionWait(20 * time.Millisecond) {
			return errors.New("AttentionWait returned true with the line lowered")
		}
		return nil
	})
}

// TestAttentionArmWakesParkedWait: a wait that parked while the line was
// disarmed returns when another goroutine arms and raises it — what
// CPStream.Stop does to the applier.
func TestAttentionArmWakesParkedWait(t *testing.T) {
	attnJob(t, func(p *Proc, _ chan<- struct{}) error {
		for _, w := range attnWaits {
			entered := make(chan struct{})
			got := make(chan error, 1)
			go func() {
				close(entered)
				got <- w.wait(p, Block)
			}()
			<-entered
			p.AttentionRaise() // disarmed: parked or not, the wait stays
			p.AttentionArm(true)
			err := <-got
			p.AttentionClear()
			p.AttentionArm(false)
			if !errors.Is(err, ErrAttention) {
				return fmt.Errorf("%s: returned %v, want ErrAttention", w.name, err)
			}
		}
		return nil
	})
}

// TestAttentionWatchSeesEarlierNotification: a value already in the slot
// when the watch is registered raises the line.
func TestAttentionWatchSeesEarlierNotification(t *testing.T) {
	attnJob(t, func(p *Proc, poke chan<- struct{}) error {
		poke <- struct{}{}
		if _, err := p.NotifyWaitsome(attnSeg, attnSlot, 1, Block); err != nil {
			return err
		}
		if p.attn.raised.Load() {
			return errors.New("line raised by an unwatched slot")
		}
		if err := p.AttentionWatch(attnSeg, attnSlot); err != nil {
			return err
		}
		if !p.attn.raised.Load() {
			return errors.New("watch registered over a set slot left the line lowered")
		}
		p.AttentionClear()
		return nil
	})
}

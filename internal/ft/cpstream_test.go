package ft

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/gaspi"
)

// cpStore is a channel-free, mutex-synchronized frame sink for Serve.
type cpStore struct {
	mu     sync.Mutex
	frames map[string][]byte
}

func newCPStore() *cpStore { return &cpStore{frames: make(map[string][]byte)} }

func (s *cpStore) put(key string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames[key] = append([]byte(nil), blob...)
	return nil
}

func (s *cpStore) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.frames[key]
	return b, ok
}

func (s *cpStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// TestCPStreamDelivers pushes frames (including multi-chunk ones) from
// rank 0 to rank 1 and verifies byte-exact arrival and acknowledgment flow
// control.
func TestCPStreamDelivers(t *testing.T) {
	store := newCPStore()
	job := gaspi.Launch(testGaspiCfg(2), func(p *gaspi.Proc) error {
		s, err := NewCPStream(p, []gaspi.Rank{p.Rank()}, 4096, 64, 20*time.Millisecond)
		if err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		switch p.Rank() {
		case 0:
			defer s.Stop()
			for i := 0; i < 5; i++ {
				blob := bytes.Repeat([]byte{byte(i + 1)}, 300) // ~5 chunks
				if err := s.Push(1, fmt.Sprintf("cp/state/0/v%d", i), blob); err != nil {
					return fmt.Errorf("push %d: %w", i, err)
				}
			}
			// Tell the receiver we are done (reuse the ack slot backwards).
			if err := p.Notify(1, SegCP, NotifCPAck, 1, CPAckQueue); err != nil {
				return err
			}
			return p.WaitQueue(CPAckQueue, gaspi.Block)
		default:
			go s.Serve(store.put)
			if _, err := p.NotifyWaitsome(SegCP, NotifCPAck, 1, gaspi.Block); err != nil {
				return err
			}
			s.Stop()
			return nil
		}
	})
	defer job.Close()
	for _, r := range job.Wait() {
		if r.Err != nil || r.Death != nil {
			t.Fatalf("rank %d: err=%v death=%+v", r.Rank, r.Err, r.Death)
		}
	}
	if store.len() != 5 {
		t.Fatalf("stored %d frames, want 5", store.len())
	}
	for i := 0; i < 5; i++ {
		got, ok := store.get(fmt.Sprintf("cp/state/0/v%d", i))
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 300)) {
			t.Fatalf("frame %d wrong (present=%v)", i, ok)
		}
	}
}

// TestCPStreamZeroCopyBufferReuse mirrors the async writer's production
// pattern: one staging buffer refilled and pushed repeatedly. The chunks
// are posted zero-copy, so a successful Push must mean the fabric holds no
// more references — refilling the buffer afterwards must neither race
// (checked under -race) nor corrupt previously delivered frames.
func TestCPStreamZeroCopyBufferReuse(t *testing.T) {
	store := newCPStore()
	const frames = 8
	job := gaspi.Launch(testGaspiCfg(2), func(p *gaspi.Proc) error {
		s, err := NewCPStream(p, []gaspi.Rank{p.Rank()}, 4096, 64, 20*time.Millisecond)
		if err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		switch p.Rank() {
		case 0:
			defer s.Stop()
			buf := make([]byte, 777) // reused across every push
			for i := 0; i < frames; i++ {
				for j := range buf {
					buf[j] = byte(i + 1)
				}
				if err := s.Push(1, fmt.Sprintf("cp/state/0/v%d", i), buf); err != nil {
					return fmt.Errorf("push %d: %w", i, err)
				}
			}
			if err := p.Notify(1, SegCP, NotifCPAck, 1, CPAckQueue); err != nil {
				return err
			}
			return p.WaitQueue(CPAckQueue, gaspi.Block)
		default:
			go s.Serve(store.put)
			if _, err := p.NotifyWaitsome(SegCP, NotifCPAck, 1, gaspi.Block); err != nil {
				return err
			}
			s.Stop()
			return nil
		}
	})
	defer job.Close()
	for _, r := range job.Wait() {
		if r.Err != nil || r.Death != nil {
			t.Fatalf("rank %d: err=%v death=%+v", r.Rank, r.Err, r.Death)
		}
	}
	for i := 0; i < frames; i++ {
		got, ok := store.get(fmt.Sprintf("cp/state/0/v%d", i))
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 777)) {
			t.Fatalf("frame %d corrupted by buffer reuse (present=%v)", i, ok)
		}
	}
}

// TestCPStreamCoHostedSenders: the two ranks of one node replicate to the
// same receiver on the neighbor node at once. Each writes into the slot of
// its position on its node, so every frame of both arrives intact and
// acknowledged; with one shared slot their chunks would interleave into
// mangled frames that are never acknowledged.
func TestCPStreamCoHostedSenders(t *testing.T) {
	const frames = 20
	store := newCPStore()
	frame := func(r gaspi.Rank, i int) []byte { return bytes.Repeat([]byte{byte(50*int(r) + i)}, 2000) }
	job := gaspi.Launch(testGaspiCfg(4), func(p *gaspi.Proc) error {
		// Two nodes of two ranks: 0 and 1 push to 2; 3 only takes part.
		base := p.Rank() / 2 * 2
		s, err := NewCPStream(p, []gaspi.Rank{base, base + 1}, 4096, 64, 20*time.Millisecond)
		if err != nil {
			return err
		}
		if p.Rank() == 2 {
			go s.Serve(store.put)
			defer s.Stop()
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() < 2 {
			for i := 0; i < frames; i++ {
				if err := s.Push(2, fmt.Sprintf("cp/state/%d/v%d", p.Rank(), i), frame(p.Rank(), i)); err != nil {
					return fmt.Errorf("push %d: %w", i, err)
				}
			}
		}
		// A sender that gave up never reaches this barrier: time out
		// rather than hang.
		if err := p.Barrier(gaspi.GroupAll, 20*time.Second); err != nil {
			return err
		}
		if p.Rank() == 2 {
			if st := s.Stats(); st.ServedFull != 2*frames {
				return fmt.Errorf("served %d frames, want %d", st.ServedFull, 2*frames)
			}
		}
		return nil
	})
	defer job.Close()
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("hung")
	}
	for _, r := range res {
		if r.Err != nil || r.Death != nil {
			t.Fatalf("rank %d: err=%v death=%+v", r.Rank, r.Err, r.Death)
		}
	}
	for r := gaspi.Rank(0); r < 2; r++ {
		for i := 0; i < frames; i++ {
			got, ok := store.get(fmt.Sprintf("cp/state/%d/v%d", r, i))
			if !ok || !bytes.Equal(got, frame(r, i)) {
				t.Fatalf("rank %d frame %d mangled (present=%v)", r, i, ok)
			}
		}
	}
}

// TestCPStreamReceiverDeath: a receiver dying mid-stream must surface as a
// push error on the sender, never as a partial frame in the store.
func TestCPStreamReceiverDeath(t *testing.T) {
	store := newCPStore()
	job := gaspi.Launch(testGaspiCfg(2), func(p *gaspi.Proc) error {
		s, err := NewCPStream(p, []gaspi.Rank{p.Rank()}, 1<<16, 128, 20*time.Millisecond)
		if err != nil {
			return err
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		switch p.Rank() {
		case 0:
			defer s.Stop()
			blob := bytes.Repeat([]byte{7}, 1<<15) // many chunks
			for i := 0; ; i++ {
				err := s.Push(1, fmt.Sprintf("cp/state/0/v%d", i), blob)
				if err != nil {
					return nil // expected once the receiver is dead
				}
				if i > 1000 {
					return errors.New("receiver death never surfaced")
				}
			}
		default:
			go s.Serve(store.put)
			// Die only after at least one full frame landed, so the exit
			// strikes mid-stream instead of racing the sender's first push.
			deadline := time.Now().Add(10 * time.Second)
			for {
				store.mu.Lock()
				n := len(store.frames)
				store.mu.Unlock()
				if n > 0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			p.Exit(-1)
			return nil
		}
	})
	defer job.Close()
	results, ok := job.WaitTimeout(20 * time.Second)
	if !ok {
		t.Fatal("hung")
	}
	for _, r := range results {
		if r.Rank == 0 && r.Err != nil {
			t.Fatalf("sender error: %v", r.Err)
		}
	}
	// Whatever frames were stored must be complete.
	store.mu.Lock()
	defer store.mu.Unlock()
	for k, b := range store.frames {
		if len(b) != 1<<15 {
			t.Fatalf("partial frame %s committed (%d bytes)", k, len(b))
		}
	}
}

// TestCPStreamSenderDiesBetweenChunks: a sender that dies after its frame's
// header and first chunk have landed, before the commit notification, leaves
// a partial frame in its writer slot. The receiver must never store it, and
// a later frame committed into the same slot by a live sender must be
// served intact.
func TestCPStreamSenderDiesBetweenChunks(t *testing.T) {
	const chunk = 64
	store := newCPStore()
	torn := bytes.Repeat([]byte{0xee}, 10*chunk)
	live := bytes.Repeat([]byte{0x5a}, 7*chunk+3)
	job := gaspi.Launch(testGaspiCfg(3), func(p *gaspi.Proc) error {
		// Three one-rank nodes: 0 and 1 both write slot 0 of rank 2.
		s, err := NewCPStream(p, []gaspi.Rank{p.Rank()}, 4096, chunk, 20*time.Millisecond)
		if err != nil {
			return err
		}
		if p.Rank() == 2 {
			go s.Serve(store.put)
			defer s.Stop()
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		switch p.Rank() {
		case 0:
			// Push's own writes, cut after the first chunk.
			const key = "cp/state/0/v1"
			if err := p.WriteFrom(2, SegCP, 0, s.header(key, len(torn)), CPQueue); err != nil {
				return err
			}
			if err := p.WriteFrom(2, SegCP, int64(cpFrameHeader+len(key)), torn[:chunk], CPQueue); err != nil {
				return err
			}
			if err := s.waitQueue(CPQueue); err != nil {
				return err
			}
			// Both writes have landed: let rank 1 go, then die.
			if err := p.Notify(1, SegCP, NotifCPAck, -1, CPAckQueue); err != nil {
				return err
			}
			if err := p.WaitQueue(CPAckQueue, gaspi.Block); err != nil {
				return err
			}
			p.Exit(-1)
			return nil
		case 1:
			if _, err := p.NotifyWaitsome(SegCP, NotifCPAck, 1, gaspi.Block); err != nil {
				return err
			}
			if _, err := p.NotifyReset(SegCP, NotifCPAck); err != nil {
				return err
			}
			if err := s.Push(2, "cp/state/1/v1", live); err != nil {
				return fmt.Errorf("live push: %w", err)
			}
			if err := p.Notify(2, SegCP, NotifCPAck, 1, CPAckQueue); err != nil {
				return err
			}
			return p.WaitQueue(CPAckQueue, gaspi.Block)
		default:
			if _, err := p.NotifyWaitsome(SegCP, NotifCPAck, 1, gaspi.Block); err != nil {
				return err
			}
			if st := s.Stats(); st.ServedFull != 1 {
				return fmt.Errorf("served %d frames, want 1", st.ServedFull)
			}
			return nil
		}
	})
	defer job.Close()
	res, ok := job.WaitTimeout(20 * time.Second)
	if !ok {
		t.Fatal("hung")
	}
	for _, r := range res {
		if r.Rank != 0 && (r.Err != nil || r.Death != nil) {
			t.Fatalf("rank %d: err=%v death=%+v", r.Rank, r.Err, r.Death)
		}
	}
	if _, ok := store.get("cp/state/0/v1"); ok {
		t.Fatal("the dead sender's partial frame was stored")
	}
	if got, ok := store.get("cp/state/1/v1"); !ok || !bytes.Equal(got, live) {
		t.Fatalf("live frame after the torn one mangled (present=%v)", ok)
	}
	if n := store.len(); n != 1 {
		t.Fatalf("stored %d frames, want 1", n)
	}
}

// TestCPStreamFrameTooLarge: oversized frames are rejected locally.
func TestCPStreamFrameTooLarge(t *testing.T) {
	job := gaspi.Launch(testGaspiCfg(2), func(p *gaspi.Proc) error {
		s, err := NewCPStream(p, []gaspi.Rank{p.Rank()}, 256, 64, 10*time.Millisecond)
		if err != nil {
			return err
		}
		defer s.Stop()
		if p.Rank() != 0 {
			return nil
		}
		err = s.Push(1, "cp/state/0/v1", make([]byte, 1024))
		if !errors.Is(err, ErrCPFrameTooLarge) {
			return fmt.Errorf("Push oversize = %v, want ErrCPFrameTooLarge", err)
		}
		return nil
	})
	defer job.Close()
	for _, r := range job.Wait() {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

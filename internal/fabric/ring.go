package fabric

import (
	"sync/atomic"
	"time"
)

// postEntry is one posted message in a shard's intake ring. The post time
// and the deterministic part of the delivery delay are stamped by the
// producer, so time spent queued in the ring never inflates the modeled
// latency; jitter is added by the shard (which owns the RNG — keeping all
// random-number work out of the producer path, see shard.admit). ps is the
// shard-wide post sequence, the total order the consumer re-establishes
// when a full ring forces some entries through the spill queue (see
// shard.enqueue).
type postEntry struct {
	msg  Message
	at   time.Time
	d    time.Duration
	mgmt bool
	ps   uint64
}

// ringSlot pairs an entry with its publication sequence (the Vyukov
// bounded-queue scheme: seq == pos means free, seq == pos+1 means
// published, anything else means the slot still belongs to an earlier
// lap).
type ringSlot struct {
	seq atomic.Uint64
	e   postEntry
}

// postRing is the lock-free multi-producer single-consumer intake of a
// shard: the doorbell ring. Producers claim a slot by CAS on the tail
// cursor (never blocking the other producers on a mutex, and never
// touching the shard's heap), publish the entry, and ring the shard's
// doorbell only when the shard is actually parked — so back-to-back posts
// from one sender (the spMVM gather posting to every consumer, the
// checkpoint flusher streaming chunk writes) coalesce into at most one
// channel wakeup instead of one per message.
//
// The consumer drains strictly in claim order: a claimed-but-unpublished
// slot parks the drain at that position, which is exactly what preserves
// per-producer post order (and with it the per-(source, destination) FIFO
// guarantee) through the ring.
type postRing struct {
	slots []ringSlot
	mask  uint64
	_     [48]byte // keep the producer cursor off the consumer's line
	tail  atomic.Uint64
	_     [56]byte
	head  uint64 // consumer-only
}

// newPostRing makes a ring of depth slots, a power of two (intakeDepth).
// A full ring splits by caller (shard.enqueue): ordinary producers wait
// for space — that wait is the fabric's flow control — while posts from a
// delivery (NACKs and handler replies, which a shard can post into its
// own ring) divert to the shard's spill queue instead of deadlocking.
func newPostRing(depth int) *postRing {
	r := &postRing{
		slots: make([]ringSlot, depth),
		mask:  uint64(depth) - 1,
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// tryPush claims a slot, publishes e, and returns true — or returns false
// immediately if the ring is full (the caller diverts to the spill queue).
// Races with other producers (a lost tail CAS, a slot freed mid-look) are
// retried; only the genuine full state fails. Never blocks, never yields.
//
//ftlint:hotpath
func (r *postRing) tryPush(e postEntry) bool {
	for {
		pos := r.tail.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.e = e
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos: // full: the consumer has not freed this lap yet
			return false
		}
		// seq > pos: another producer advanced tail; reload and retry.
	}
}

// pop takes the next published entry, in claim order. Consumer-only.
//
//ftlint:hotpath
func (r *postRing) pop() (postEntry, bool) {
	s := &r.slots[r.head&r.mask]
	if s.seq.Load() != r.head+1 {
		return postEntry{}, false
	}
	e := s.e
	s.e = postEntry{} // release the payload reference for the collector
	s.seq.Store(r.head + uint64(len(r.slots)))
	r.head++
	return e, true
}

// empty reports whether the next slot in claim order is unpublished.
// Consumer-only (it reads the consumer cursor).
//
//ftlint:hotpath
func (r *postRing) empty() bool {
	return r.slots[r.head&r.mask].seq.Load() != r.head+1
}

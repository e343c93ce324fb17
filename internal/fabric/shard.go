package fabric

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinThreshold is the due-time horizon below which a shard busy-yields
// instead of arming a timer: Go timers fire ~50-100µs late under load,
// which would swamp the microsecond-scale latencies the time-compressed
// experiments model. Yield-spinning delivers with ~1µs precision at the
// cost of briefly occupying a P — and since the fabric runs at most one
// shard per core (Config.Shards defaults to min(GOMAXPROCS, N)), at most
// one goroutine per shard ever spins, instead of the one-pump-per-rank
// design's N potential spinners.
const spinThreshold = 50 * time.Microsecond

// lingerGrace is how long a shard keeps time-keeper-spinning after its
// last delivery before parking on the doorbell. Request/response traffic
// (the small-collective ping-pong, FD pings) turns messages around within
// a round-trip; lingering across that gap means the response's post is
// consumed straight from the intake ring instead of paying a doorbell →
// channel → scheduler wake, which at small rank counts costs more than
// the modeled wire latency itself.
const lingerGrace = 100 * time.Microsecond

// lingerYieldAbort is the Gosched round-trip above which a lingering shard
// concludes the P is contended and parks instead of spinning on. An idle
// machine turns a yield around in well under a microsecond; taking 10µs+
// to get the CPU back means runnable goroutines are queued behind us.
const lingerYieldAbort = 10 * time.Microsecond

// shard is one delivery engine of the sharded data plane. Destinations
// are striped across shards round-robin (shard = dst % Shards), so the
// messages of a collective round — whose partners are ranks at power-of-
// two distances — land on distinct heaps instead of serializing on one,
// and so do the per-partner halo pushes of the spMVM gather.
//
// All mutable delivery state (the monomorphic timer heap, the sequence
// counter, the per-(source, destination) FIFO clamps, the jitter RNG) is
// owned by the shard goroutine alone: producers only touch the lock-free
// intake ring and the doorbell. There is no mutex on the post path at
// all. The shard also runs every destination's handler (its Sink),
// so each endpoint's messages are handled on one goroutine, in delivery
// order.
type shard struct {
	t  *Transport
	id int

	ring     *postRing
	wake     chan struct{}
	done     chan struct{}
	sleeping atomic.Bool
	once     sync.Once

	// Spill intake: where a delivery's own posts (NACKs, handler replies)
	// go when the ring is full — a shard waiting for space in a ring that
	// only it, or another waiting shard, drains would deadlock. Ordinary
	// producers wait for ring space instead (see enqueue); that wait is
	// the fabric's flow control. postSeq stamps every entry so the
	// consumer can merge ring and spill back into post order (the
	// per-(source, destination) FIFO clamp in admit requires same-pair
	// entries to be admitted in post order).
	postSeq atomic.Uint64
	spillOn atomic.Bool
	spillMu sync.Mutex
	spill   []postEntry

	// Consumer-goroutine state (no locks — single owner).
	h        msgHeap
	seq      uint64
	lastDue  map[pairKey]time.Time
	rng      *rand.Rand
	timer    *time.Timer
	lastWork time.Time // last delivery, for the post-delivery linger
}

// pairKey identifies a directed (source, destination) pair: the unit of
// the fabric's FIFO guarantee, preserved across the shard boundary by
// clamping every message's due time to its pair's previous one.
type pairKey struct{ from, to Rank }

// heapItem is one scheduled message in a shard's timer heap.
type heapItem struct {
	due  time.Time
	seq  uint64
	mgmt bool
	msg  Message
}

// msgHeap is a hand-rolled binary min-heap over heapItem. container/heap
// would box every item into an interface{} on Push and Pop — two heap
// allocations per delivered message, which the zero-copy data plane cannot
// afford; the monomorphic implementation allocates only on slice growth.
type msgHeap []heapItem

func (h msgHeap) less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}

func (h *msgHeap) push(it heapItem) {
	*h = append(*h, it)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *msgHeap) pop() heapItem {
	a := *h
	n := len(a) - 1
	top := a[0]
	a[0] = a[n]
	a[n] = heapItem{} // release the payload reference for the collector
	*h = a[:n]
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.less(l, smallest) {
			smallest = l
		}
		if r < n && a.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}

func newShard(t *Transport, id int, seed int64) *shard {
	s := &shard{
		t:       t,
		id:      id,
		ring:    newPostRing(intakeDepth(t.cfg.N)),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		lastDue: make(map[pairKey]time.Time),
		rng:     rand.New(rand.NewSource(seed)),
	}
	s.timer = time.NewTimer(time.Hour)
	if !s.timer.Stop() {
		<-s.timer.C
	}
	return s
}

// post enqueues a message into the intake (ring, or spill queue when the
// ring is full) and rings the doorbell. Called from any producer
// goroutine; lock-free unless the ring is full.
func (s *shard) post(m Message, d time.Duration, mgmt, fromDelivery bool) {
	e := postEntry{msg: m, at: time.Now(), d: d, mgmt: mgmt, ps: s.postSeq.Add(1)}
	if !s.enqueue(e, fromDelivery) {
		return // transport shutting down: in-flight messages are discarded
	}
	s.doorbell()
}

// fullSpinLaps is how many yield laps a producer burns on a full ring
// before escalating to timed sleeps. The yields handle the common
// transient (consumer is mid-drain, space frees within its timeslice);
// the sleeps handle the pathological one-P schedule in which a flooding
// producer refills the entire drained ring inside its own timeslice —
// a pure-Gosched wait puts the starved producer right back behind the
// flooder in the round-robin, forever, while a timer wake breaks the
// rotation and lets it claim a slot.
const fullSpinLaps = 4

// fullSleep is the timed wait a producer pays per full-ring lap after the
// yield laps are exhausted. It doubles as the fabric's flow control: a
// producer posting faster than the shard delivers spends its excess time
// here instead of growing unbounded queues ahead of slower traffic.
const fullSleep = 10 * time.Microsecond

// enqueue places e in the intake. The happy path is a lock-free ring
// claim. A full ring splits by caller:
//
//   - An ordinary producer WAITS for space (yield laps, then timed
//     sleeps). This wait is load-bearing: it is the only backpressure in
//     the fabric, bounding how far a flooding sender can run ahead of
//     delivery. Without it a hot poll loop grows the spill queue by
//     millions of entries and protocol-critical messages queue behind
//     them for minutes.
//
//   - A post from a delivery (fromDelivery: a NACK or a handler's reply,
//     posted on a shard goroutine, possibly into its own ring) must NEVER
//     wait, so it diverts to the spill queue. Once engaged, ALL delivery
//     posts append there (checked again under the lock — the consumer may
//     have just swept it) until the next gather, so a delivery cannot jump
//     its own spilled entry by finding a freed ring slot; gather merges
//     spill and ring back into post order by ps.
//
// Returns false only when the transport is shutting down and the intake
// is congested — the one case in which the consumer may never drain
// again.
//
//ftlint:hotpath
func (s *shard) enqueue(e postEntry, fromDelivery bool) bool {
	for fulls := 0; ; {
		if fromDelivery && s.spillOn.Load() {
			s.spillMu.Lock()
			if s.spillOn.Load() {
				s.spill = append(s.spill, e)
				s.spillMu.Unlock()
				return true
			}
			s.spillMu.Unlock()
		}
		if s.ring.tryPush(e) {
			return true
		}
		if s.t.closed.Load() {
			return false
		}
		if fromDelivery {
			s.spillMu.Lock()
			s.spill = append(s.spill, e)
			s.spillOn.Store(true)
			s.spillMu.Unlock()
			return true
		}
		if fulls++; fulls <= fullSpinLaps {
			runtime.Gosched()
		} else {
			time.Sleep(fullSleep)
		}
	}
}

// doorbell wakes the shard iff it is parked. A shard that is running,
// spinning on a near-due message, or lingering after a delivery observes
// the ring directly, so the common back-to-back-post case performs no
// channel operation — that is the wakeup coalescing the
// one-channel-send-per-message design lacked.
//
//ftlint:hotpath
func (s *shard) doorbell() {
	if s.sleeping.Load() && s.sleeping.CompareAndSwap(true, false) {
		s.t.wakes.Add(1)
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

func (s *shard) stop() { s.once.Do(func() { close(s.done) }) }

// admit moves one ring entry into the timer heap: jitter is drawn from the
// shard-owned RNG (producers never touch it — the old design computed
// jitter under the pump mutex, serializing every producer to a
// destination), and the due time is clamped to the pair's previous due
// time so per-(source, destination) delivery order survives both jitter
// and sharding.
//
//ftlint:hotpath
func (s *shard) admit(e postEntry) {
	d := e.d
	if !e.mgmt && s.t.cfg.Latency.Jitter > 0 {
		d += time.Duration(s.rng.Float64() * s.t.cfg.Latency.Jitter * float64(s.t.cfg.Latency.Base))
	}
	due := e.at.Add(d)
	k := pairKey{from: e.msg.From, to: e.msg.To}
	if last, ok := s.lastDue[k]; ok && due.Before(last) {
		due = last
	}
	s.lastDue[k] = due
	s.seq++
	s.h.push(heapItem{due: due, seq: s.seq, mgmt: e.mgmt, msg: e.msg})
}

// drain admits every published ring entry.
//
//ftlint:hotpath
func (s *shard) drain() {
	for {
		e, ok := s.ring.pop()
		if !ok {
			return
		}
		s.admit(e)
	}
}

// gather moves the whole intake into the timer heap. With no spill
// engaged this is the plain lock-free ring drain; when a full ring
// diverted entries to the spill queue, the spill is swept FIRST (clearing
// the flag, so new posts go back to claiming ring slots) and then the
// ring, and the union is admitted in post-sequence order — the
// admit-order contract of the per-pair FIFO clamp. The sweep order is
// load-bearing: a gathered entry's older same-pair sibling either sits in
// the swept spill, or was ring-pushed before the sweep began and is
// therefore still in the ring when the post-sweep drain runs — either
// way it lands in the same batch, and the sort puts it first.
//
//ftlint:hotpath
func (s *shard) gather() {
	if !s.spillOn.Load() {
		s.drain()
		return
	}
	s.spillMu.Lock()
	batch := s.spill
	s.spill = nil
	s.spillOn.Store(false)
	s.spillMu.Unlock()
	for {
		e, ok := s.ring.pop()
		if !ok {
			break
		}
		batch = append(batch, e)
	}
	sortByPS(batch)
	for _, e := range batch {
		s.admit(e)
	}
}

// sortByPS orders a gathered batch by post sequence without the interface
// boxing of sort.Slice (whose closure forced the batch header to escape on
// a path the shard loop hits on every spill sweep): insertion sort for
// small batches, in-place heapsort above that. Both allocate nothing.
//
//ftlint:hotpath
func sortByPS(b []postEntry) {
	if len(b) <= 32 {
		for i := 1; i < len(b); i++ {
			e := b[i]
			j := i - 1
			for j >= 0 && b[j].ps > e.ps {
				b[j+1] = b[j]
				j--
			}
			b[j+1] = e
		}
		return
	}
	for i := len(b)/2 - 1; i >= 0; i-- {
		siftDownPS(b, i, len(b))
	}
	for end := len(b) - 1; end > 0; end-- {
		b[0], b[end] = b[end], b[0]
		siftDownPS(b, 0, end)
	}
}

//ftlint:hotpath
func siftDownPS(b []postEntry, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && b[child+1].ps > b[child].ps {
			child++
		}
		if b[root].ps >= b[child].ps {
			return
		}
		b[root], b[child] = b[child], b[root]
		root = child
	}
}

// run is the shard's delivery loop: drain the intake ring into the heap,
// deliver everything due, then either spin (near-due head or post-delivery
// linger: the shard is the group's single time-keeper, re-draining the
// ring while it waits) or park on the doorbell/timer. Steady state
// performs no heap allocation.
//
//ftlint:hotpath
func (s *shard) run() {
	for {
		s.gather()
		progressed := false
		for len(s.h) > 0 {
			now := time.Now()
			if s.h[0].due.After(now) {
				break
			}
			it := s.h.pop()
			s.t.deliver(it.msg, it.mgmt)
			progressed = true
		}
		if progressed {
			s.lastWork = time.Now()
			continue // new posts may have raced in; drain again before waiting
		}

		// Nothing due. Work out how long until something could be.
		wait := time.Duration(-1) // -1: park indefinitely
		if len(s.h) > 0 {
			wait = time.Until(s.h[0].due)
			if wait <= 0 {
				// The head slipped past due between the delivery loop's
				// clock read and this one (preemption): deliver now rather
				// than mistaking a stale deadline for "nothing scheduled".
				continue
			}
		}
		// Post-delivery linger: just after delivering, the next post is
		// almost always imminent — a request/response protocol turns the
		// message around within a round-trip. Parking now would make that
		// next post pay the doorbell → channel → scheduler wake (the
		// regression the one-pump-per-rank layout didn't have, since hot
		// pumps rarely slept). Stay in the time-keeper spin for a grace
		// window instead, consuming doorbell-free posts as they appear.
		//
		// The linger is strictly a latency optimization, so it must yield
		// under CPU contention: if a Gosched doesn't come back promptly,
		// other runnable goroutines are hungry for this P (oversubscribed
		// simulations, GOMAXPROCS=1 CI) and holding it would starve the
		// very producers whose posts we are waiting for. Park instead —
		// the doorbell still works.
		if grace := lingerGrace - time.Since(s.lastWork); grace > 0 && (wait < 0 || wait > spinThreshold) {
			if wait >= 0 && wait < grace {
				grace = wait
			}
			contended := false
			deadline := time.Now().Add(grace)
			for time.Now().Before(deadline) {
				if !s.ring.empty() {
					break
				}
				select {
				case <-s.done:
					return
				default:
				}
				yieldAt := time.Now()
				runtime.Gosched()
				if time.Since(yieldAt) > lingerYieldAbort {
					contended = true
					break
				}
			}
			if !contended {
				// Ring content, a now-due head, or a quiet expiry (lastWork
				// is stale, so the next pass won't re-linger and parks with
				// a freshly computed wait): all re-evaluated at the loop
				// top.
				continue
			}
			// Contended: fall through to the park/spin decision below so
			// the waiting producers get the P.
		}

		if wait >= 0 && wait <= spinThreshold {
			// Time-keeper spin: hold the deadline with ~1µs precision,
			// consuming doorbell-free posts as they appear.
			deadline := time.Now().Add(wait)
			for time.Now().Before(deadline) {
				if !s.ring.empty() {
					break
				}
				select {
				case <-s.done:
					return
				default:
					runtime.Gosched()
				}
			}
			continue
		}

		// Park. Publish sleeping before the final ring check: a producer
		// either sees sleeping and rings the doorbell, or published its
		// entry before our check and we see it here (both, harmlessly, on
		// the race — the buffered wake at worst causes one spurious loop).
		s.sleeping.Store(true)
		if !s.ring.empty() || s.spillOn.Load() {
			s.sleeping.Store(false)
			continue
		}
		if wait < 0 {
			select {
			case <-s.wake:
			case <-s.done:
				return
			}
		} else {
			s.timer.Reset(wait)
			select {
			case <-s.wake:
				// Non-blocking drain: if the timer fired concurrently the
				// stale value at worst causes one spurious wake next park.
				// (A blocking drain would deadlock under Go 1.23+ timer
				// semantics, where Stop==false no longer implies a value
				// is in flight.)
				if !s.timer.Stop() {
					select {
					case <-s.timer.C:
					default:
					}
				}
			case <-s.timer.C:
			case <-s.done:
				if !s.timer.Stop() {
					select {
					case <-s.timer.C:
					default:
					}
				}
				return
			}
		}
		s.sleeping.Store(false)
	}
}

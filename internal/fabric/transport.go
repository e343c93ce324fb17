package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyModel describes the message latency distribution of the fabric.
// The delivery delay of a message of size s bytes is
//
//	Base + PerByte*s + U(0, Jitter*Base)
//
// where U is uniform noise drawn from a deterministic per-shard stream.
type LatencyModel struct {
	// Base is the zero-byte message latency (e.g. ~1.3µs for QDR IB,
	// scaled by the experiment's time-scale factor).
	Base time.Duration
	// PerByte is the inverse bandwidth (time per payload byte).
	PerByte time.Duration
	// PerByteNs is an additional fractional per-byte cost in nanoseconds,
	// for bandwidths above 1 GB/s where a whole nanosecond per byte is too
	// coarse (time-scaled experiments use it).
	PerByteNs float64
	// Jitter is the noise amplitude as a fraction of Base. Management-plane
	// messages take Base, without jitter or a per-byte cost.
	Jitter float64
}

// delay computes the delivery delay for a message of the given wire size.
// rng may be nil, in which case no jitter is applied.
func (l LatencyModel) delay(size int, rng *rand.Rand) time.Duration {
	d := l.Base + time.Duration(size)*l.PerByte
	if l.PerByteNs > 0 {
		d += time.Duration(l.PerByteNs * float64(size))
	}
	if l.Jitter > 0 && rng != nil {
		d += time.Duration(rng.Float64() * l.Jitter * float64(l.Base))
	}
	return d
}

// Config parameterizes a Transport.
type Config struct {
	// N is the number of endpoints (simulated processes).
	N int
	// Latency is the fabric latency model.
	Latency LatencyModel
	// Seed seeds the deterministic jitter streams.
	Seed int64
	// Shards is the number of data-plane delivery shards. Destinations are
	// striped across shards round-robin (dst % Shards), each shard owning
	// its own timer heap, jitter RNG and doorbell ring. Defaults to
	// min(GOMAXPROCS, N): one shard per core the runtime will actually
	// schedule, so at most that many time-keeper spinners exist at once.
	// Shards = N reproduces the historical one-pump-per-rank layout (the
	// scale sweep's baseline arm).
	Shards int
}

func (c *Config) withDefaults() Config {
	cc := *c
	if cc.Shards <= 0 {
		cc.Shards = runtime.GOMAXPROCS(0)
	}
	if cc.Shards > cc.N {
		cc.Shards = cc.N
	}
	if cc.Shards < 1 {
		cc.Shards = 1
	}
	return cc
}

// intakeDepth is the capacity of the one bounded queue a message crosses:
// its shard's post ring. 64 slots per endpoint, as a power of two (the
// ring masks its cursor) within [512, 4096], so what a job keeps resident
// follows its size up to 64 endpoints. Depth is no correctness parameter:
// a shallower ring only fills sooner, and the producer's full-ring wait
// (shard.enqueue) is the flow control at any depth.
func intakeDepth(n int) int {
	d := 512
	for d < 64*n && d < 4096 {
		d *= 2
	}
	return d
}

// Stats holds fabric-wide message counters. All fields are read with
// atomic loads; use Transport.Stats for a consistent-enough snapshot.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // swallowed by partitions / downed links
	Nacks     uint64
	Bytes     uint64
	// Deprecated: FastDelivered equals Delivered: every delivered message
	// goes to the endpoint's Sink.
	FastDelivered uint64
	// DoorbellWakes counts the channel wakeups that actually reached a
	// parked shard. The gap between Sent and this is the doorbell-free
	// traffic: posts consumed straight from the intake ring by a shard
	// that was processing, holding a near-due deadline, or lingering
	// after a delivery.
	DoorbellWakes uint64
	// PerKind counts sent messages by kind value.
	PerKind [256]uint64
}

// linkState is an immutable snapshot of the fabric's partition and
// link-failure state, published with an atomic pointer swap so the
// delivery hot path never takes a lock to consult it. allUp short-circuits
// the common no-failures case to a single pointer load and branch.
type linkState struct {
	allUp       bool
	partitioned []bool
	linksDown   map[linkKey]bool
}

func (ls *linkState) ok(a, b Rank) bool {
	if ls.allUp {
		return true
	}
	return !ls.partitioned[a] && !ls.partitioned[b] && !ls.linksDown[normLink(a, b)]
}

// Transport is the simulated interconnect: N endpoints plus a set of
// delivery shards, each serving the destinations striped onto it.
type Transport struct {
	cfg    Config
	eps    []*Endpoint
	shards []*shard

	// mu serializes link-state *mutations* only (SetPartitioned,
	// SetLinkDown build the next snapshot under it); readers go through
	// the links pointer and never block.
	mu    sync.Mutex
	links atomic.Pointer[linkState]

	closed atomic.Bool

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	nacks     atomic.Uint64
	bytes     atomic.Uint64
	wakes     atomic.Uint64
	perKind   [256]atomic.Uint64
}

type linkKey struct{ a, b Rank }

func normLink(a, b Rank) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// New creates a transport with cfg.N endpoints and starts its delivery
// shards.
func New(cfg Config) *Transport {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		panic(fmt.Sprintf("fabric: invalid endpoint count %d", cfg.N))
	}
	t := &Transport{
		cfg:    cfg,
		eps:    make([]*Endpoint, cfg.N),
		shards: make([]*shard, cfg.Shards),
	}
	t.links.Store(&linkState{
		allUp:       true,
		partitioned: make([]bool, cfg.N),
		linksDown:   map[linkKey]bool{},
	})
	for i := range t.eps {
		t.eps[i] = &Endpoint{
			rank: Rank(i),
			t:    t,
			done: make(chan struct{}),
		}
	}
	for i := range t.shards {
		t.shards[i] = newShard(t, i, cfg.Seed+int64(i)*7919)
	}
	for _, s := range t.shards {
		go s.run()
	}
	return t
}

// N returns the number of endpoints.
func (t *Transport) N() int { return len(t.eps) }

// Shards returns the number of delivery shards.
func (t *Transport) Shards() int { return len(t.shards) }

// shardOf maps a destination to its delivery shard. Round-robin striping
// (rather than contiguous blocks) spreads the traffic of neighboring
// ranks — a collective round's power-of-two partners, the spMVM halo
// partners — across distinct heaps.
func (t *Transport) shardOf(dst Rank) *shard {
	return t.shards[int(dst)%len(t.shards)]
}

// Endpoint returns the endpoint with the given rank.
func (t *Transport) Endpoint(r Rank) *Endpoint {
	if r < 0 || int(r) >= len(t.eps) {
		panic(fmt.Sprintf("fabric: no endpoint %d", r))
	}
	return t.eps[r]
}

// Latency exposes the configured latency model (read-only).
func (t *Transport) Latency() LatencyModel { return t.cfg.Latency }

// Close shuts down the transport: all endpoints are closed and the shards
// stop. In-flight messages are discarded.
func (t *Transport) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	for _, e := range t.eps {
		e.Close()
	}
	for _, s := range t.shards {
		s.stop()
	}
}

// SetPartitioned marks an endpoint as network-partitioned (down=true) or
// heals it. While partitioned, all data-plane messages to and from the
// endpoint are silently dropped; the endpoint itself stays alive.
// Publishes a fresh link-state snapshot; concurrent deliveries keep
// reading the previous one lock-free.
func (t *Transport) SetPartitioned(r Rank, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publishLinks(func(ls *linkState) { ls.partitioned[r] = down })
}

// SetLinkDown takes a single bidirectional link down (down=true) or restores
// it. Used to model non-uniformly visible network failures (the paper's
// restriction 3: a process reachable by some peers but not the detector).
func (t *Transport) SetLinkDown(a, b Rank, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publishLinks(func(ls *linkState) {
		if down {
			ls.linksDown[normLink(a, b)] = true
		} else {
			delete(ls.linksDown, normLink(a, b))
		}
	})
}

// publishLinks builds the next immutable link-state snapshot from the
// current one and swaps it in. Caller holds t.mu.
func (t *Transport) publishLinks(mutate func(*linkState)) {
	cur := t.links.Load()
	next := &linkState{
		partitioned: make([]bool, len(cur.partitioned)),
		linksDown:   make(map[linkKey]bool, len(cur.linksDown)),
	}
	copy(next.partitioned, cur.partitioned)
	for k, v := range cur.linksDown {
		next.linksDown[k] = v
	}
	mutate(next)
	next.allUp = len(next.linksDown) == 0
	if next.allUp {
		for _, p := range next.partitioned {
			if p {
				next.allUp = false
				break
			}
		}
	}
	t.links.Store(next)
}

// linkOK reports whether the data-plane path a→b is currently usable.
// Lock-free: a single atomic pointer load, plus (only when some failure
// is active) the snapshot lookups.
func (t *Transport) linkOK(a, b Rank) bool {
	return t.links.Load().ok(a, b)
}

// Stats returns a snapshot of the fabric counters.
func (t *Transport) Stats() Stats {
	var s Stats
	s.Sent = t.sent.Load()
	s.Delivered = t.delivered.Load()
	s.Dropped = t.dropped.Load()
	s.Nacks = t.nacks.Load()
	s.Bytes = t.bytes.Load()
	s.FastDelivered = s.Delivered
	s.DoorbellWakes = t.wakes.Load()
	for i := range s.PerKind {
		s.PerKind[i] = t.perKind[i].Load()
	}
	return s
}

// post schedules m for delivery. mgmt messages use the management plane:
// fixed latency and immune to partitions. The deterministic delay is
// computed here; jitter is added by the owning shard (which owns the RNG).
// fromDelivery marks a post made on a shard goroutine: a handler's reply
// or a NACK.
func (t *Transport) post(m Message, mgmt, fromDelivery bool) {
	t.sent.Add(1)
	t.bytes.Add(uint64(m.wireSize()))
	t.perKind[m.Kind].Add(1)
	d := t.cfg.Latency.Base
	if !mgmt {
		d = t.cfg.Latency.delay(m.wireSize(), nil)
	}
	t.shardOf(m.To).post(m, d, mgmt, fromDelivery)
}

// deliver hands a due message to its destination's handler, NACKing it
// instead if the endpoint is closed, or dropping it if the data-plane
// path is partitioned.
func (t *Transport) deliver(m Message, mgmt bool) {
	dst := t.eps[m.To]
	if dst.Closed() {
		t.nack(m)
		return
	}
	if !mgmt && !t.linkOK(m.From, m.To) {
		t.dropped.Add(1)
		return
	}
	t.delivered.Add(1)
	if h, _ := dst.sink.Load().(Sink); h != nil {
		h(m, Reply{dst})
	}
	if !mgmt && dst.Closed() {
		// The endpoint closed while its handler ran: any answer the
		// handler posted from the now-closed endpoint was dropped, so
		// report the broken connection. If the answer DID get out first,
		// the late NACK resolves an already-resolved token and is ignored
		// — the same success/broken-connection ambiguity a real fabric
		// has at connection teardown. A management-plane message is not
		// NACKed: a kill closes its own target, and the killer is owed
		// no answer.
		t.nack(m)
	}
}

// nack reports a broken connection back to the sender of m. It runs on
// the shard delivering m.
func (t *Transport) nack(m Message) {
	if m.Kind == KindNack {
		return // never nack a nack
	}
	src := t.eps[m.From]
	if src.Closed() {
		return
	}
	t.nacks.Add(1)
	n := Message{
		Kind:  KindNack,
		From:  m.To,
		To:    m.From,
		Token: m.Token,
		Args:  [4]int64{NackClosed, int64(m.Kind), m.Args[0], m.Args[1]},
	}
	// NACKs travel on the data plane and are therefore also subject to
	// partitions (checked at delivery time).
	t.post(n, false, true)
}

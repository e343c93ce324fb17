package fabric

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestShardStriping pins the destination→shard mapping: round-robin by
// rank, so the partners of a collective round (power-of-two distances)
// and the halo neighbours of a gather land on distinct delivery heaps.
func TestShardStriping(t *testing.T) {
	cfg := fastCfg(8)
	cfg.Shards = 3
	tr := New(cfg)
	defer tr.Close()
	if got := tr.Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want 3", got)
	}
	for dst := Rank(0); dst < 8; dst++ {
		if got, want := tr.shardOf(dst).id, int(dst)%3; got != want {
			t.Fatalf("shardOf(%d).id = %d, want %d", dst, got, want)
		}
	}
}

// TestShardCountDefaults covers the Shards config normalization: zero
// means GOMAXPROCS, and the count is clamped to the endpoint count.
func TestShardCountDefaults(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	want := runtime.GOMAXPROCS(0)
	if want > 2 {
		want = 2
	}
	if got := tr.Shards(); got != want {
		t.Fatalf("default Shards() = %d, want min(GOMAXPROCS, N) = %d", got, want)
	}

	cfg := fastCfg(4)
	cfg.Shards = 64
	tr2 := New(cfg)
	defer tr2.Close()
	if got := tr2.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want clamp to N = 4", got)
	}
}

// TestIntakeDepthFollowsEndpointCount pins the sizing rule of the intake
// rings: 64 slots per endpoint, a power of two, within [512, 4096] — and
// that a transport's rings are made to it.
func TestIntakeDepthFollowsEndpointCount(t *testing.T) {
	for n, want := range map[int]int{1: 512, 7: 512, 8: 512, 9: 1024, 16: 1024, 33: 4096, 64: 4096, 256: 4096} {
		if got := intakeDepth(n); got != want {
			t.Errorf("intakeDepth(%d) = %d, want %d", n, got, want)
		}
	}
	tr := New(fastCfg(9))
	defer tr.Close()
	if got := len(tr.shards[0].ring.slots); got != 1024 {
		t.Errorf("ring depth %d at 9 endpoints, want 1024", got)
	}
}

// TestCrossShardFIFOProperty is the sharded-data-plane ordering property:
// per-(source,destination) FIFO must survive any shard count, jitter, and
// concurrent posting from multiple sources. Several sources post token
// streams to several destinations at once (so every shard serves multiple
// pairs and producers genuinely race on the intake rings), and every pair's
// stream must arrive in post order.
func TestCrossShardFIFOProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, shardSel uint8, nMsg uint8) bool {
		shards := []int{1, 2, 3, 8}[int(shardSel)%4]
		n := 1 + int(nMsg)%60
		const nRanks = 6
		srcs := []Rank{0, 1, 2}
		dsts := []Rank{3, 4, 5}

		cfg := Config{
			N:       nRanks,
			Latency: LatencyModel{Base: time.Microsecond, PerByte: 5 * time.Nanosecond, Jitter: 3.0},
			Seed:    seed,
			Shards:  shards,
		}
		tr := New(cfg)
		defer tr.Close()
		ins := make(map[Rank]<-chan Message, len(dsts))
		for _, dst := range dsts {
			ins[dst] = inbox(t, tr.Endpoint(dst), n*len(srcs))
		}

		var wg sync.WaitGroup
		for _, src := range srcs {
			wg.Add(1)
			go func(src Rank) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed ^ int64(src)))
				ep := tr.Endpoint(src)
				for i := 0; i < n; i++ {
					for _, dst := range dsts {
						m := Message{
							Kind:    2,
							Token:   uint64(i),
							Payload: make([]byte, rng.Intn(1024)),
						}
						if err := ep.Send(dst, m); err != nil {
							t.Errorf("send %d->%d: %v", src, dst, err)
							return
						}
					}
				}
			}(src)
		}

		var failed atomic.Bool
		var rwg sync.WaitGroup
		for _, dst := range dsts {
			rwg.Add(1)
			go func(dst Rank) {
				defer rwg.Done()
				next := make(map[Rank]uint64, len(srcs))
				for got := 0; got < n*len(srcs); got++ {
					select {
					case m := <-ins[dst]:
						if m.Token != next[m.From] {
							t.Errorf("pair (%d,%d): got token %d want %d", m.From, dst, m.Token, next[m.From])
							failed.Store(true)
							return
						}
						next[m.From]++
					case <-time.After(5 * time.Second):
						t.Errorf("pair timeout at dst %d after %d messages", dst, got)
						failed.Store(true)
						return
					}
				}
			}(dst)
		}
		wg.Wait()
		rwg.Wait()
		return !failed.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPostCloseLinkDownStress races the three mutation planes
// the shards must tolerate concurrently: hot posting from every rank,
// endpoints closing mid-stream (NACK generation), and link/partition
// state flapping through the copy-on-write snapshot. Run under -race at
// GOMAXPROCS>=4 this is the gate that the sharded rewrite is actually
// safe under real parallelism; the only assertions are conservation of
// messages (every post ends in exactly one of Delivered, Dropped and
// Nacks) and clean shutdown.
func TestConcurrentPostCloseLinkDownStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}

	const nRanks = 16
	cfg := Config{
		N:       nRanks,
		Latency: LatencyModel{Base: time.Microsecond, PerByte: time.Nanosecond, Jitter: 1.0},
		Seed:    7,
		Shards:  4,
	}
	tr := New(cfg)
	defer tr.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Every endpoint's handler answers what it is handed, so handler
	// replies race the posts, the closes and the link flaps too. Ranks 3
	// and 7 close their own endpoint mid-stream, from inside the handler
	// of their 100th and 400th message: that message is NACKed although
	// it was delivered, and the NACK path races posts and link flaps.
	// (Rank nRanks-1 stays open so the final conservation check has live
	// traffic.)
	closeAt := map[Rank]int{3: 100, 7: 400}
	for r := Rank(0); r < nRanks; r++ {
		handled, last := 0, closeAt[r]
		tr.Endpoint(r).SetSink(func(m Message, reply Reply) {
			if handled++; handled == last {
				tr.Endpoint(r).Close()
			}
			if m.Kind == 2 {
				reply.Send(m.From, Message{Kind: 3, Token: m.Token})
			}
		})
	}

	// Posters: every rank streams to every other rank.
	for r := Rank(0); r < nRanks; r++ {
		wg.Add(1)
		go func(src Rank) {
			defer wg.Done()
			ep := tr.Endpoint(src)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dst := Rank((int(src) + 1 + i) % nRanks)
				_ = ep.Send(dst, Message{Kind: 2, Token: uint64(i)})
			}
		}(r)
	}

	// Link flapper: partitions and pairwise link failures toggle through
	// the atomically-published snapshot while deliveries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := Rank(rng.Intn(nRanks))
			tr.SetPartitioned(r, true)
			a, b := Rank(rng.Intn(nRanks)), Rank(rng.Intn(nRanks))
			tr.SetLinkDown(a, b, true)
			runtime.Gosched()
			tr.SetPartitioned(r, false)
			tr.SetLinkDown(a, b, false)
		}
	}()

	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Wait until the fabric is quiet — no counter moved for 10 polls once
	// the books balance, for 200 otherwise — then check conservation:
	// everything posted is delivered, dropped (partition, link down, or a
	// closed destination nobody can be told of) or NACKed (closed
	// destination) exactly once — nothing vanishes inside a shard, and
	// nothing is counted twice.
	st := tr.Stats()
	for quiet := 0; quiet < 200 && (quiet < 10 || st.Delivered+st.Dropped+st.Nacks != st.Sent); {
		time.Sleep(time.Millisecond)
		if next := tr.Stats(); next == st {
			quiet++
		} else {
			st, quiet = next, 0
		}
	}
	if st.Sent == 0 {
		t.Fatal("stress produced no traffic")
	}
	if st.Delivered+st.Dropped+st.Nacks != st.Sent {
		t.Fatalf("sent=%d, but delivered=%d + dropped=%d + nacks=%d = %d",
			st.Sent, st.Delivered, st.Dropped, st.Nacks, st.Delivered+st.Dropped+st.Nacks)
	}
}

// TestDoorbellCoalescing checks the wakeup contract of the intake ring: a
// burst of back-to-back posts to one shard must not require one channel
// send per message. It can't observe channel sends directly, so it pins
// the observable half of the contract — a parked shard is woken by the
// first post of a burst and the whole burst is delivered — and the
// latency model stays intact while doing so.
func TestDoorbellCoalescing(t *testing.T) {
	const k = 32
	cfg := fastCfg(2)
	cfg.Shards = 1
	tr := New(cfg)
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), k)

	for burst := 0; burst < 50; burst++ {
		// Let the shard park between bursts (no pending work, >spin
		// horizon idle), then slam a burst through the ring.
		time.Sleep(200 * time.Microsecond)
		for i := 0; i < k; i++ {
			if err := a.Send(1, Message{Kind: 2, Token: uint64(burst*k + i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			m := recvOne(t, b, time.Second)
			if m.Token != uint64(burst*k+i) {
				t.Fatalf("burst %d: got token %d want %d", burst, m.Token, uint64(burst*k+i))
			}
		}
	}
}

// TestLingerDoorbellFree pins the post-delivery linger contract: a
// request/response stream that turns messages around within the grace
// window must be consumed almost entirely doorbell-free (the shard stays
// in its time-keeper spin between deliveries instead of parking), while
// the latency model still holds — no delivery lands before its modeled
// due time.
func TestLingerDoorbellFree(t *testing.T) {
	cfg := fastCfg(2)
	cfg.Shards = 1
	tr := New(cfg)
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 1)

	const n = 500
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := a.Send(1, Message{Kind: 2, Token: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, b, time.Second)
		if m.Token != uint64(i) {
			t.Fatalf("got token %d want %d", m.Token, i)
		}
		if el := time.Since(start); el < cfg.Latency.Base {
			t.Fatalf("message %d delivered after %v, below the modeled %v", i, el, cfg.Latency.Base)
		}
	}
	st := tr.Stats()
	// The first post of the stream may wake a parked shard; the rest ride
	// the linger. Scheduler preemption can add a few extra parks, so pin
	// the contract with slack rather than exactly one wake.
	if st.DoorbellWakes > n/10 {
		t.Fatalf("ping-pong paid %d doorbell wakes over %d sends — linger not engaging: %+v",
			st.DoorbellWakes, st.Sent, st)
	}
	t.Logf("doorbell wakes %d over %d sent", st.DoorbellWakes, st.Sent)
}

// TestLingerParksWhenQuiet is the other half of the linger contract: a
// shard must not spin forever — once traffic stops for longer than the
// grace window it parks again, and the next burst needs (and gets) a
// doorbell wake.
func TestLingerParksWhenQuiet(t *testing.T) {
	cfg := fastCfg(2)
	cfg.Shards = 1
	tr := New(cfg)
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 1)

	const bursts = 20
	for i := 0; i < bursts; i++ {
		if err := a.Send(1, Message{Kind: 2, Token: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if m := recvOne(t, b, time.Second); m.Token != uint64(i) {
			t.Fatalf("got token %d want %d", m.Token, i)
		}
		time.Sleep(2 * time.Millisecond) // far past the grace window
	}
	st := tr.Stats()
	if st.DoorbellWakes < bursts/2 {
		t.Fatalf("widely spaced sends saw only %d doorbell wakes over %d — shard never parked: %+v",
			st.DoorbellWakes, st.Sent, st)
	}
}

// TestShardsEqualRanksMatchesPumpLayout runs the historical configuration
// (one shard per rank, the old pump-per-destination layout) as a sanity
// anchor: ordering and NACK behavior must be identical to the sharded
// configurations.
func TestShardsEqualRanksMatchesPumpLayout(t *testing.T) {
	const n = 100
	cfg := fastCfg(4)
	cfg.Shards = 4
	tr := New(cfg)
	defer tr.Close()
	a, d := tr.Endpoint(0), inbox(t, tr.Endpoint(3), n)
	for i := 0; i < n; i++ {
		if err := a.Send(3, Message{Kind: 2, Token: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, d, time.Second)
		if m.Token != uint64(i) {
			t.Fatalf("got token %d want %d", m.Token, i)
		}
	}
}

// waitUntil polls cond (an atomic or a channel length) until it holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestUndrainedEndpointFlood drives the intake ring to its limit: four
// producers post 8 × depth messages each to one endpoint, which the test
// does not read until every producer has returned, so the producers
// outrun a ring a fraction of their burst deep. Every producer must return
// (the full-ring wait is flow control, not a deadlock), and everything
// arrives, in per-pair order, with nothing dropped.
func TestUndrainedEndpointFlood(t *testing.T) {
	const producers = 4
	cfg := fastCfg(producers + 1)
	tr := New(cfg)
	defer tr.Close()
	per := 8 * intakeDepth(cfg.N)
	dst := tr.Endpoint(producers)
	in := inbox(t, dst, producers*per)

	var wg sync.WaitGroup
	for r := 0; r < producers; r++ {
		wg.Add(1)
		go func(e *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Send(dst.Rank(), Message{Kind: 2, Token: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(tr.Endpoint(Rank(r)))
	}
	wg.Wait()

	next := make([]uint64, producers)
	for i := 0; i < producers*per; i++ {
		m := recvOne(t, in, 10*time.Second)
		if m.Token != next[m.From] {
			t.Fatalf("from %d: got token %d, want %d", m.From, m.Token, next[m.From])
		}
		next[m.From]++
	}
	if st := tr.Stats(); st.Dropped != 0 || st.Delivered != uint64(producers*per) {
		t.Fatalf("dropped %d, delivered %d of %d", st.Dropped, st.Delivered, producers*per)
	}
}

// TestShardNackIntoFullRingSpills holds the one shard inside a delivery (a
// handler that waits on a gate) while a producer fills its ring to the last
// slot and goes on waiting for space. Released, the shard delivers to a
// closed endpoint and posts the NACKs into its own full ring, and the
// handler at the second gate posts a reply behind them: waiting there
// would deadlock the only goroutine that drains it, so both must take the
// spill queue — checked by holding the shard at that gate — and still
// reach the sender in post order, behind nothing they were posted before,
// with the waiting producer's tail delivered as well.
func TestShardNackIntoFullRingSpills(t *testing.T) {
	const (
		src, closedDst, sinkDst = Rank(0), Rank(1), Rank(2)
		kindGate, kindFill      = 3, 2
		nacks                   = 8
		extra                   = 64 // what the producer still has to post when the ring is full
	)
	cfg := fastCfg(3)
	cfg.Shards = 1
	tr := New(cfg)
	defer tr.Close()
	depth := intakeDepth(cfg.N)
	a, s := tr.Endpoint(src), tr.shards[0]
	nackIn := inbox(t, a, nacks+1)
	tr.Endpoint(closedDst).Close()

	gates := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	entered := make(chan uint64)
	var fills atomic.Uint64
	var misordered atomic.Bool
	tr.Endpoint(sinkDst).SetSink(func(m Message, reply Reply) {
		if m.Kind == kindGate {
			if m.Token == 2 {
				reply.Send(m.From, Message{Kind: kindGate, Token: 2})
			}
			entered <- m.Token
			<-gates[m.Token]
		} else if fills.Add(1)-1 != m.Token {
			misordered.Store(true)
		}
	})
	send := func(to Rank, kind uint8, token uint64) {
		t.Helper()
		if err := a.Send(to, Message{Kind: kind, Token: token}); err != nil {
			t.Fatal(err)
		}
	}
	enter := func(gate uint64) {
		t.Helper()
		select {
		case got := <-entered:
			if got != gate {
				t.Fatalf("shard entered gate %d, want %d", got, gate)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("shard never reached gate %d", gate)
		}
	}

	// Behind gate 0, queue up the pass the test is about: gate 1, the posts
	// that will be NACKed, gate 2 — delivered in that order.
	send(sinkDst, kindGate, 0)
	enter(0)
	send(sinkDst, kindGate, 1)
	for i := 0; i < nacks; i++ {
		send(closedDst, kindFill, uint64(i))
	}
	send(sinkDst, kindGate, 2)
	close(gates[0])
	enter(1)

	// The shard gathered that pass, so its ring is empty; it pops nothing
	// while it sits at gate 1. Fill it.
	full := s.ring.tail.Load() + uint64(depth)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < depth+extra; i++ {
			if err := a.Send(sinkDst, Message{Kind: kindFill, Token: uint64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	waitUntil(t, "a full ring", func() bool { return s.ring.tail.Load() == full })
	close(gates[1])
	enter(2)

	s.spillMu.Lock()
	spilled, on := len(s.spill), s.spillOn.Load()
	s.spillMu.Unlock()
	if spilled != nacks+1 || !on {
		t.Fatalf("%d posts in the spill queue (engaged: %v), want %d NACKs and a reply", spilled, on, nacks)
	}
	close(gates[2])

	for i := 0; i < nacks; i++ {
		m := recvOne(t, nackIn, 10*time.Second)
		if m.Kind != KindNack || m.From != closedDst || m.Token != uint64(i) {
			t.Fatalf("NACK %d: got kind %d from %d token %d", i, m.Kind, m.From, m.Token)
		}
	}
	if m := recvOne(t, nackIn, 10*time.Second); m.Kind != kindGate || m.From != sinkDst || m.Token != 2 {
		t.Fatalf("reply: got kind %d from %d token %d", m.Kind, m.From, m.Token)
	}
	wg.Wait()
	waitUntil(t, "the producer's tail", func() bool { return fills.Load() == uint64(depth+extra) })
	if misordered.Load() {
		t.Fatal("fill messages reached the handler out of post order")
	}
	if st := tr.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d", st.Dropped)
	}
}

package fabric

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func fastCfg(n int) Config {
	return Config{
		N: n,
		Latency: LatencyModel{
			Base:    2 * time.Microsecond,
			PerByte: time.Nanosecond / 1, // 1ns per byte
		},
		Seed: 42,
	}
}

// inbox registers a handler on e that forwards every message into a
// channel of the given capacity, sized to the test's traffic, and returns
// the channel. A message that finds it full fails the test; the handler
// never blocks the shard.
func inbox(t *testing.T, e *Endpoint, capacity int) <-chan Message {
	t.Helper()
	ch := make(chan Message, capacity)
	e.SetSink(func(m Message, _ Reply) {
		select {
		case ch <- m:
		default:
			t.Errorf("rank %d: inbox of %d full, kind %d from %d not kept", e.Rank(), capacity, m.Kind, m.From)
		}
	})
	return ch
}

func recvOne(t *testing.T, in <-chan Message, within time.Duration) Message {
	t.Helper()
	select {
	case m := <-in:
		return m
	case <-time.After(within):
		t.Fatalf("no message within %v", within)
		return Message{}
	}
}

func TestBasicDelivery(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 1)
	if err := a.Send(1, Message{Kind: 7, Token: 99, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, time.Second)
	if m.Kind != 7 || m.Token != 99 || string(m.Payload) != "hello" {
		t.Fatalf("got %+v", m)
	}
	if m.From != 0 || m.To != 1 {
		t.Fatalf("bad addressing: %+v", m)
	}
}

func TestFIFOPerPair(t *testing.T) {
	tr := New(Config{N: 2, Latency: LatencyModel{Base: time.Microsecond, PerByte: 10 * time.Nanosecond, Jitter: 2.0}, Seed: 1})
	defer tr.Close()
	const n = 500
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		// Varying payload sizes create varying latencies; FIFO per pair must hold.
		if err := a.Send(1, Message{Kind: 1, Token: uint64(i), Payload: make([]byte, rng.Intn(512))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, b, 2*time.Second)
		if m.Token != uint64(i) {
			t.Fatalf("out of order: got token %d want %d", m.Token, i)
		}
	}
}

func TestFIFOPerPairProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(sizes []uint16, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 200 {
			sizes = sizes[:200]
		}
		tr := New(Config{N: 3, Latency: LatencyModel{Base: time.Microsecond, PerByte: 5 * time.Nanosecond, Jitter: 3.0}, Seed: seed})
		defer tr.Close()
		a, c := tr.Endpoint(0), inbox(t, tr.Endpoint(2), len(sizes))
		for i, s := range sizes {
			if err := a.Send(2, Message{Kind: 2, Token: uint64(i), Payload: make([]byte, int(s)%1024)}); err != nil {
				return false
			}
		}
		for i := range sizes {
			select {
			case m := <-c:
				if m.Token != uint64(i) {
					return false
				}
			case <-time.After(2 * time.Second):
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNackOnClosedEndpoint(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	a := tr.Endpoint(0)
	nacks := inbox(t, a, 1)
	tr.Endpoint(1).Close()
	if err := a.Send(1, Message{Kind: 5, Token: 1234}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, nacks, time.Second)
	if m.Kind != KindNack {
		t.Fatalf("want NACK, got kind %d", m.Kind)
	}
	if m.Token != 1234 {
		t.Fatalf("NACK must carry original token, got %d", m.Token)
	}
	if m.Args[0] != NackClosed || m.Args[1] != 5 {
		t.Fatalf("NACK args: %+v", m.Args)
	}
	if m.From != 1 {
		t.Fatalf("NACK should come from the dead endpoint's rank, got %d", m.From)
	}
}

func TestNackNotSentToClosedSender(t *testing.T) {
	// A wide latency window makes the schedule deterministic even under
	// real parallelism: the sender is guaranteed to be closed before the
	// message (and therefore its NACK) can come due on the shard.
	cfg := fastCfg(2)
	cfg.Latency.Base = 5 * time.Millisecond
	tr := New(cfg)
	defer tr.Close()
	a, b := tr.Endpoint(0), tr.Endpoint(1)
	b.Close()
	if err := a.Send(1, Message{Kind: 5, Token: 1}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Nothing to assert beyond "no panic / no deadlock": give the pump a
	// moment to process.
	time.Sleep(20 * time.Millisecond)
	if got := tr.Stats().Delivered; got != 0 {
		t.Fatalf("nothing should have been delivered, got %d", got)
	}
}

func TestSendFromClosedEndpoint(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	a := tr.Endpoint(0)
	a.Close()
	if err := a.Send(1, Message{}); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestPartitionDropsSilently(t *testing.T) {
	tr := New(fastCfg(3))
	defer tr.Close()
	a := tr.Endpoint(0)
	toA, b := inbox(t, a, 1), inbox(t, tr.Endpoint(1), 1)
	tr.SetPartitioned(1, true)
	if err := a.Send(1, Message{Kind: 9, Token: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-toA:
		t.Fatalf("unexpected message to sender (no NACK on partition): %+v", m)
	case m := <-b:
		t.Fatalf("partitioned endpoint received %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if tr.Stats().Dropped == 0 {
		t.Fatal("drop not recorded")
	}
	// Healing restores delivery.
	tr.SetPartitioned(1, false)
	if err := a.Send(1, Message{Kind: 9, Token: 8}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, time.Second)
	if m.Token != 8 {
		t.Fatalf("got token %d", m.Token)
	}
}

func TestPartitionBlocksOutbound(t *testing.T) {
	tr := New(fastCfg(3))
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 1)
	tr.SetPartitioned(0, true)
	if err := a.Send(1, Message{Kind: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b:
		t.Fatalf("message escaped partition: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestLinkDownIsNonUniform(t *testing.T) {
	tr := New(fastCfg(3))
	defer tr.Close()
	a, b, c := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 2), inbox(t, tr.Endpoint(2), 1)
	tr.SetLinkDown(0, 1, true)
	if err := a.Send(1, Message{Kind: 1, Token: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, Message{Kind: 1, Token: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Endpoint(2).Send(1, Message{Kind: 1, Token: 3}); err != nil {
		t.Fatal(err)
	}
	// 0→2 and 2→1 must still work; 0→1 must not.
	m := recvOne(t, c, time.Second)
	if m.Token != 2 {
		t.Fatalf("got %d", m.Token)
	}
	m = recvOne(t, b, time.Second)
	if m.Token != 3 {
		t.Fatalf("got %d", m.Token)
	}
	select {
	case m := <-b:
		t.Fatalf("link-down message arrived: %+v", m)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestMgmtBypassesPartition(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 1)
	tr.SetPartitioned(1, true)
	if err := a.SendMgmt(1, Message{Kind: 33, Token: 5}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, time.Second)
	if m.Kind != 33 || m.Token != 5 {
		t.Fatalf("got %+v", m)
	}
}

func TestMgmtToClosedEndpointNacks(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	a := tr.Endpoint(0)
	nacks := inbox(t, a, 1)
	tr.Endpoint(1).Close()
	if err := a.SendMgmt(1, Message{Kind: 33, Token: 5}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, nacks, time.Second)
	if m.Kind != KindNack {
		t.Fatalf("want NACK, got %+v", m)
	}
}

func TestLatencyRoughlyHonored(t *testing.T) {
	base := 20 * time.Millisecond
	tr := New(Config{N: 2, Latency: LatencyModel{Base: base}})
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 1)
	start := time.Now()
	if err := a.Send(1, Message{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	elapsed := time.Since(start)
	if elapsed < base {
		t.Fatalf("delivered after %v, want >= %v", elapsed, base)
	}
	if elapsed > 10*base {
		t.Fatalf("delivered after %v, far beyond %v", elapsed, base)
	}
}

func TestPerByteLatency(t *testing.T) {
	// 1 MiB at 1µs/KiB ≈ 1ms extra; verify big messages take longer.
	lm := LatencyModel{Base: time.Millisecond, PerByte: 20 * time.Nanosecond}
	tr := New(Config{N: 2, Latency: lm})
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 1)
	big := make([]byte, 1<<20)
	start := time.Now()
	if err := a.Send(1, Message{Kind: 1, Payload: big}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 5*time.Second)
	elapsed := time.Since(start)
	want := lm.Base + time.Duration(len(big))*lm.PerByte
	if elapsed < want {
		t.Fatalf("big message took %v, want >= %v", elapsed, want)
	}
}

func TestConcurrentSendersStress(t *testing.T) {
	const n = 16
	const per = 200
	tr := New(fastCfg(n))
	defer tr.Close()
	dst := inbox(t, tr.Endpoint(0), (n-1)*per)
	var wg sync.WaitGroup
	for src := 1; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			e := tr.Endpoint(Rank(src))
			for i := 0; i < per; i++ {
				if err := e.Send(0, Message{Kind: 3, Token: uint64(src*1000000 + i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(src)
	}
	got := make(map[Rank]uint64)
	for i := 0; i < (n-1)*per; i++ {
		m := recvOne(t, dst, 5*time.Second)
		// FIFO per source.
		want := uint64(int(m.From)*1000000) + got[m.From]
		if m.Token != want {
			t.Fatalf("src %d out of order: got %d want %d", m.From, m.Token, want)
		}
		got[m.From]++
	}
	wg.Wait()
	for src := 1; src < n; src++ {
		if got[Rank(src)] != per {
			t.Fatalf("src %d delivered %d, want %d", src, got[Rank(src)], per)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), 10)
	for i := 0; i < 10; i++ {
		if err := a.Send(1, Message{Kind: 11}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		recvOne(t, b, time.Second)
	}
	s := tr.Stats()
	if s.Sent != 10 || s.Delivered != 10 {
		t.Fatalf("sent=%d delivered=%d", s.Sent, s.Delivered)
	}
	if s.PerKind[11] != 10 {
		t.Fatalf("per-kind count %d", s.PerKind[11])
	}
	if s.Bytes == 0 {
		t.Fatal("bytes not counted")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	tr := New(fastCfg(2))
	tr.Endpoint(0).Close()
	tr.Endpoint(0).Close()
	tr.Close()
	tr.Close()
}

func TestInvalidDestination(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	if err := tr.Endpoint(0).Send(5, Message{}); err == nil {
		t.Fatal("want error for invalid destination")
	}
	if err := tr.Endpoint(0).Send(-1, Message{}); err == nil {
		t.Fatal("want error for negative destination")
	}
}

func TestEndpointPanicsOnBadRank(t *testing.T) {
	tr := New(fastCfg(2))
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tr.Endpoint(99)
}

func TestManyEndpoints(t *testing.T) {
	// Smoke test at the paper's scale: 256 endpoints + spares.
	tr := New(fastCfg(261))
	defer tr.Close()
	in := inbox(t, tr.Endpoint(0), 260)
	var wg sync.WaitGroup
	for i := 1; i < 261; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := tr.Endpoint(Rank(i)).Send(0, Message{Kind: 1, Token: uint64(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for i := 1; i < 261; i++ {
		m := recvOne(t, in, 5*time.Second)
		if seen[m.Token] {
			t.Fatalf("duplicate token %d", m.Token)
		}
		seen[m.Token] = true
	}
}

func TestWireSizeAccounting(t *testing.T) {
	m := Message{Payload: make([]byte, 100)}
	if got := m.wireSize(); got != 148 {
		t.Fatalf("wireSize = %d, want 148", got)
	}
}

func TestJitterNeverReordersPair(t *testing.T) {
	tr := New(Config{N: 2, Latency: LatencyModel{Base: 50 * time.Microsecond, Jitter: 5}, Seed: 9})
	defer tr.Close()
	const n = 100
	a, b := tr.Endpoint(0), inbox(t, tr.Endpoint(1), n)
	for i := 0; i < n; i++ {
		if err := a.Send(1, Message{Token: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, b, 5*time.Second)
		if m.Token != uint64(i) {
			t.Fatalf("jitter reordered: got %d want %d", m.Token, i)
		}
	}
}

func ExampleTransport() {
	tr := New(Config{N: 2, Latency: LatencyModel{Base: time.Microsecond}})
	defer tr.Close()
	// Rank 1's handler answers on the shard that delivers to it; rank 0's
	// hands what it gets to the example's goroutine.
	tr.Endpoint(1).SetSink(func(m Message, reply Reply) {
		reply.Send(m.From, Message{Kind: 2, Payload: []byte("pong")})
	})
	got := make(chan Message, 1)
	tr.Endpoint(0).SetSink(func(m Message, _ Reply) { got <- m })
	tr.Endpoint(0).Send(1, Message{Kind: 1, Payload: []byte("ping")})
	fmt.Println(string((<-got).Payload))
	// Output: pong
}

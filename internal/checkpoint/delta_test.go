package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gaspi"
)

// mutate flips one byte in each of a few random chunks and returns a
// golden copy of the result.
func mutate(rng *rand.Rand, payload []byte, chunk, n int) []byte {
	total := (len(payload) + chunk - 1) / chunk
	for _, idx := range rng.Perm(total)[:min(n, total)] {
		payload[idx*chunk] ^= byte(1 + rng.Intn(255))
	}
	return append([]byte(nil), payload...)
}

// TestDeltaWriteFetchRoundtrip drives the incremental engine through
// several generations (full bases every 3rd write, deltas between,
// including a payload that grows and shrinks) and verifies every version
// reassembles bit-exactly — including after the local store is lost and
// the chain must come from the neighbor replicas. "Every version" is every
// version of the retention window: behind a sealed v7 that is the base two
// or more generations back (v4) and everything after it; v1-v3 are released.
func TestDeltaWriteFetchRoundtrip(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 4)
	lib := newLib(cl, 1, Config{ChunkBytes: chunk, FullEvery: 3})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{1, 2, 3})

	rng := rand.New(rand.NewSource(3))
	payload := make([]byte, 10*chunk+123)
	rng.Read(payload)
	golden := map[int64][]byte{1: append([]byte(nil), payload...)}
	if err := lib.Write("state", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	for v := int64(2); v <= 7; v++ {
		switch v {
		case 4: // grow mid-chain
			payload = append(payload, bytes.Repeat([]byte{0xEE}, 3*chunk)...)
		case 6: // shrink mid-chain
			payload = payload[:7*chunk+11]
		}
		golden[v] = mutate(rng, payload, chunk, 2)
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	ds := lib.DeltaStats()
	if ds.DeltaFrames == 0 || ds.FullFrames < 2 {
		t.Fatalf("delta engine inactive: %+v", ds)
	}
	if v, ok := lib.FindLatest("state", 0); !ok || v != 7 {
		t.Fatalf("FindLatest = %d, %v; want 7", v, ok)
	}
	for v, want := range golden {
		got, err := lib.Fetch("state", 0, v)
		if v < 4 {
			if !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("fetch v%d behind the window = %v, want ErrNoCheckpoint", v, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("fetch v%d: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d: reassembled payload differs (%d vs %d bytes)", v, len(got), len(want))
		}
	}

	// The writer's whole node dies: every version must still reassemble
	// from the neighbor's replica chain.
	cl.KillNode(1)
	rescue := newLib(cl, 3, Config{ChunkBytes: chunk, FullEvery: 3})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{2, 3})
	if v, ok := rescue.FindLatest("state", 0); !ok || v != 7 {
		t.Fatalf("FindLatest after node loss = %d, %v; want 7", v, ok)
	}
	got, src, err := rescue.FetchFrom("state", 0, 7)
	if err != nil || !bytes.Equal(got, golden[7]) {
		t.Fatalf("neighbor chain fetch: err=%v", err)
	}
	if src == RestoreNone || src == RestoreLocal {
		t.Fatalf("restore source = %v, want a remote tier", src)
	}
}

// TestDeltaTornChainFallsBackToSealedPrefix is the torn-delta regression:
// a crash between a delta flush and its seal leaves the newest generation
// unsealed on the surviving store, and restore must agree on the newest
// sealed base+delta prefix instead — never on the torn head.
func TestDeltaTornChainFallsBackToSealedPrefix(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 4)
	lib := newLib(cl, 1, Config{ChunkBytes: chunk, FullEvery: 4})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{1, 2, 3})
	rng := rand.New(rand.NewSource(9))
	payload := make([]byte, 8*chunk)
	rng.Read(payload)
	golden := map[int64][]byte{}
	for v := int64(1); v <= 3; v++ {
		golden[v] = mutate(rng, payload, chunk, 1)
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()

	// Simulate the crash window: v3's seal never made it to the neighbor
	// (node 2), then the writer's node dies — the torn copy is all that
	// remains of v3.
	cl.Node(2).Delete(SealKey(Key("state", 0, 3)))
	cl.KillNode(1)

	rescue := newLib(cl, 3, Config{ChunkBytes: chunk, FullEvery: 4})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{2, 3})
	v, ok := rescue.FindLatest("state", 0)
	if !ok || v != 2 {
		t.Fatalf("FindLatest with torn head = %d, %v; want sealed prefix head 2", v, ok)
	}
	got, err := rescue.Fetch("state", 0, 2)
	if err != nil || !bytes.Equal(got, golden[2]) {
		t.Fatalf("sealed-prefix fetch: err=%v", err)
	}

	// Losing the base breaks the whole chain: nothing restorable remains.
	cl.Node(2).Delete(Key("state", 0, 1))
	cl.Node(2).Delete(SealKey(Key("state", 0, 1)))
	if v, ok := rescue.FindLatest("state", 0); ok {
		t.Fatalf("FindLatest found v%d with the chain base destroyed", v)
	}
}

// TestFindLatestBelowSkipsHoledChain: with delta chains, restorability is
// not monotonic — losing one delta's replicas holes out its version while
// a newer chain on a later base stays intact. Recovery's verified
// agreement retreats through FindLatestBelow, which must land on the
// newest intact chain under the failed version, not merely version-1.
func TestFindLatestBelowSkipsHoledChain(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{ChunkBytes: chunk, FullEvery: 2})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	rng := rand.New(rand.NewSource(21))
	payload := make([]byte, 6*chunk)
	rng.Read(payload)
	golden := map[int64][]byte{}
	for v := int64(1); v <= 4; v++ { // full, delta, full, delta
		golden[v] = mutate(rng, payload, chunk, 1)
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	// Destroy every replica of v2 (a delta on the first base): v2 holes
	// out, while v4's chain (4 -> 3, a later base) stays intact.
	for _, node := range []int{0, 1} {
		cl.Node(node).Delete(Key("state", 0, 2))
		cl.Node(node).Delete(SealKey(Key("state", 0, 2)))
	}
	if v, ok := lib.FindLatest("state", 0); !ok || v != 4 {
		t.Fatalf("FindLatest = %d, %v; want 4 (chain on the later base)", v, ok)
	}
	if _, _, err := lib.FetchFrom("state", 0, 2); err == nil {
		t.Fatal("fetch of the holed version succeeded; test vacuous")
	}
	v, ok := lib.FindLatestBelow("state", 0, 4)
	if !ok || v != 3 {
		t.Fatalf("FindLatestBelow(4) = %d, %v; want the intact base 3", v, ok)
	}
	got, err := lib.Fetch("state", 0, 3)
	if err != nil || !bytes.Equal(got, golden[3]) {
		t.Fatalf("retreat target fetch: err=%v", err)
	}
}

// TestStripedRestoreSourceDeath kills one replica node in the middle of a
// striped fetch: its outstanding stripes must be re-queued and re-fetched
// from the surviving sources, and the reassembled payload must verify.
// Every writer cadence stripes alike — FullEvery 0 frames carry a
// generation tag like any other, so their replicas are known byte-identical.
func TestStripedRestoreSourceDeath(t *testing.T) {
	for _, fullEvery := range []int{0, 2} {
		t.Run(fmt.Sprintf("FullEvery=%d", fullEvery), func(t *testing.T) {
			stripedRestoreSourceDeath(t, fullEvery)
		})
	}
}

func stripedRestoreSourceDeath(t *testing.T, fullEvery int) {
	const chunk = 4 << 10
	// Modeled read latency so every source goroutine gets to claim
	// stripes before the queue drains (on a single-CPU host a zero-cost
	// read lets the first worker win everything instantly).
	cl := cluster.New(cluster.Config{
		Nodes: 5,
		Gaspi: gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
		Storage: cluster.StorageModel{
			LocalLatency: 2 * time.Millisecond,
		},
	}, func(ctx *cluster.ProcCtx) error { return nil })
	t.Cleanup(cl.Close)
	if _, ok := cl.WaitTimeout(10 * time.Second); !ok {
		t.Fatal("cluster hung")
	}
	writer := newLib(cl, 1, Config{ChunkBytes: chunk, FullEvery: fullEvery})
	defer writer.Stop()
	writer.SetWorkerNodes([]int{1, 2})
	rng := rand.New(rand.NewSource(11))
	payload := make([]byte, 64*chunk)
	rng.Read(payload)
	if err := writer.Write("state", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	writer.WaitIdle()

	// The writer's own restore sees its local and its neighbor replica and
	// must put both to work.
	var mu sync.Mutex
	seen := map[int]bool{}
	writer.stripeHook = func(nodeID, stripe int) {
		mu.Lock()
		seen[nodeID] = true
		mu.Unlock()
	}
	got, _, err := writer.FetchFrom("state", 0, 1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("striped fetch from local + neighbor: err=%v", err)
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("fetch of a 64-chunk blob with two replicas read stripes from %v, want nodes 1 and 2", seen)
	}

	key := Key("state", 0, 1)
	blob, err := cl.Node(1).Get(key, cl.Storage())
	if err != nil {
		t.Fatal(err)
	}
	if err := StoreReplica(cl, 3, key, blob); err != nil {
		t.Fatal(err)
	}

	// Reader on node 0 (no local copy); sources are nodes 1, 2, 3. Node 3
	// dies as soon as it claims its first stripe.
	lib := newLib(cl, 0, Config{ChunkBytes: chunk})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2, 3})
	var once sync.Once
	killed := false
	lib.stripeHook = func(nodeID, stripe int) {
		if nodeID == 3 {
			once.Do(func() {
				cl.KillNode(3)
				killed = true
			})
		}
	}
	got, src, err := lib.FetchFrom("state", 0, 1)
	if err != nil {
		t.Fatalf("striped fetch with dying source: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped fetch with dying source: payload mismatch")
	}
	if !killed {
		t.Fatal("the doomed source never claimed a stripe; test vacuous")
	}
	if src == RestoreNone {
		t.Fatalf("restore source = %v", src)
	}
}

// slowTransport is a nodeTransport whose every push takes d.
type slowTransport struct {
	nodeTransport
	d time.Duration
}

func (t slowTransport) Push(nb int, key string, blob []byte) error {
	time.Sleep(t.d)
	return t.nodeTransport.Push(nb, key, blob)
}

// TestReplicateOverlapsNeighborAndPFS is the flush-overlap regression: one
// Write must land both the neighbor replica and the PFS copy, and the two
// flushes must overlap instead of paying additive latency on the writer
// goroutine.
func TestReplicateOverlapsNeighborAndPFS(t *testing.T) {
	const lat = 40 * time.Millisecond
	cl := cluster.New(cluster.Config{
		Nodes: 3,
		Gaspi: gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
		Storage: cluster.StorageModel{
			PFSLatency: lat,
			PFSWidth:   2,
		},
	}, func(ctx *cluster.ProcCtx) error { return nil })
	t.Cleanup(cl.Close)
	if _, ok := cl.WaitTimeout(10 * time.Second); !ok {
		t.Fatal("cluster hung")
	}
	lib := New(cl, 0, Config{PFSEvery: 1}, slowTransport{nodeTransport{cl, 0}, lat})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	start := time.Now()
	if err := lib.Write("state", 0, 1, []byte("both replicas from one write")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	wall := time.Since(start)
	if err := lib.Err(); err != nil {
		t.Fatalf("replication error: %v", err)
	}
	key := Key("state", 0, 1)
	if _, ok := cl.Node(1).GetMeta(SealKey(key)); !ok {
		t.Fatal("neighbor replica missing after one Write")
	}
	if _, ok := cl.PFS().GetMeta(SealKey(key)); !ok {
		t.Fatal("PFS replica missing after one Write")
	}
	// Serial flushes would take >= 2*lat; overlapped, a bit over lat.
	// Generous margin for slow CI machines, still far under 2*lat.
	if wall >= 2*lat-5*time.Millisecond {
		t.Fatalf("neighbor and PFS flushes look serialized: %v for latency %v", wall, lat)
	}
}

// TestDeltaCadenceInterop: FullEvery is a writer's cadence, not a format —
// a reader configured with any other cadence finds and restores the chain.
func TestDeltaCadenceInterop(t *testing.T) {
	for _, c := range []struct{ write, read int }{{0, 4}, {4, 0}} {
		t.Run(fmt.Sprintf("write=%d/read=%d", c.write, c.read), func(t *testing.T) {
			cl := testCluster(t, 3)
			writer := newLib(cl, 0, Config{FullEvery: c.write})
			defer writer.Stop()
			writer.SetWorkerNodes([]int{0, 1, 2})
			payload := []byte("generation 0")
			for v := int64(1); v <= 3; v++ {
				payload[len(payload)-1] = byte('0' + v)
				if err := writer.Write("state", 0, v, payload); err != nil {
					t.Fatal(err)
				}
			}
			writer.WaitIdle()
			reader := newLib(cl, 0, Config{FullEvery: c.read})
			defer reader.Stop()
			reader.SetWorkerNodes([]int{0, 1, 2})
			if v, ok := reader.FindLatest("state", 0); !ok || v != 3 {
				t.Fatalf("FindLatest = %d, %v; want 3", v, ok)
			}
			got, err := reader.Fetch("state", 0, 3)
			if err != nil || string(got) != "generation 3" {
				t.Fatalf("fetch: %q, %v", got, err)
			}
		})
	}
}

// TestDeltaFrameRoundtrip property-checks the delta wire format directly:
// random payload evolutions, random chunk sizes, reassembly through
// decodeFrame+applyDelta must equal the golden payload.
func TestDeltaFrameRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		chunk := 16 + rng.Intn(512)
		prevLen := rng.Intn(20 * chunk)
		curLen := rng.Intn(20 * chunk)
		prev := make([]byte, prevLen)
		rng.Read(prev)
		cur := append([]byte(nil), prev...)
		if curLen <= len(cur) {
			cur = cur[:curLen]
		} else {
			pad := make([]byte, curLen-len(cur))
			rng.Read(pad)
			cur = append(cur, pad...)
		}
		for i := 0; i < rng.Intn(5); i++ {
			if len(cur) > 0 {
				cur[rng.Intn(len(cur))] ^= byte(1 + rng.Intn(255))
			}
		}
		ci := chainInfo{kind: KindDelta, gen: 2, prevGen: 1, prevVer: 10}
		blob := encodeDeltaInto(nil, 3, 11, ci, cur, chunk, hashChunks(prev, chunk), hashChunks(cur, chunk))
		f, err := decodeFrame(blob)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if f.chain != ci || f.logical != 3 || f.version != 11 {
			t.Fatalf("trial %d: identity %+v", trial, f.chain)
		}
		got, err := applyDelta(append([]byte(nil), prev...), f)
		if err != nil {
			t.Fatalf("trial %d: apply: %v", trial, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: reassembly mismatch (chunk %d, %d -> %d bytes)", trial, chunk, prevLen, curLen)
		}
	}
}

// TestDeltaRebaseOnWorkerRefresh: SetWorkerNodes (the post-recovery
// refresh) must force the next generation to a full base, so fresh chains
// never depend on replicas that may have died with the failed node.
func TestDeltaRebaseOnWorkerRefresh(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{ChunkBytes: chunk, FullEvery: 100})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	payload := make([]byte, 4*chunk)
	for v := int64(1); v <= 3; v++ {
		payload[0] = byte(v)
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	ds := lib.DeltaStats()
	if ds.FullFrames != 1 || ds.DeltaFrames != 2 {
		t.Fatalf("pre-refresh mix: %+v", ds)
	}
	lib.SetWorkerNodes([]int{0, 1, 2}) // the fault-aware refresh
	payload[0] = 4
	if err := lib.Write("state", 0, 4, payload); err != nil {
		t.Fatal(err)
	}
	if ds := lib.DeltaStats(); ds.FullFrames != 2 {
		t.Fatalf("post-refresh generation was not a full base: %+v", ds)
	}
	lib.WaitIdle()
}

// BenchmarkDeltaStage is the CI allocation gate for the delta staging
// path (hash diff + dirty-chunk encode into a reused buffer): the
// application-visible work per epoch must stay allocation-free in steady
// state, like the rest of the hot loops.
func BenchmarkDeltaStage(b *testing.B) {
	cl := cluster.New(cluster.Config{
		Nodes: 2,
		Gaspi: gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
	}, func(ctx *cluster.ProcCtx) error { return nil })
	defer cl.Close()
	if _, ok := cl.WaitTimeout(10 * time.Second); !ok {
		b.Fatal("cluster hung")
	}
	lib := newLib(cl, 0, Config{ChunkBytes: 4 << 10, FullEvery: 8})
	defer lib.Stop()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Pre-sized staging buffer (the async writer reuses its two halves the
	// same way); sized for the full-base generations, the largest frames.
	buf := make([]byte, 0, len(payload)+1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[(i*4096+i)%len(payload)] ^= 0xA5 // ~1 dirty chunk per epoch
		buf = lib.encodeNext(buf[:0], "bench", 0, int64(i+1), payload)
	}
}

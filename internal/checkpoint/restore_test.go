package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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

// TestDeltaWriteFetchRoundtrip drives the store through several generations
// (including a payload that grows and shrinks) and verifies every version of
// the retention window restores bit-exactly — also after the local store is
// lost and the replicas must come from the neighbor. Behind a sealed v7 the
// window is v5-v7; v1-v4 are released. (The name predates the single frame
// kind: the generations were once written as deltas.)
func TestDeltaWriteFetchRoundtrip(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 4)
	lib := newLib(cl, 1, Config{})
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
		case 4: // grow
			payload = append(payload, bytes.Repeat([]byte{0xEE}, 3*chunk)...)
		case 6: // shrink
			payload = payload[:7*chunk+11]
		}
		golden[v] = mutate(rng, payload, chunk, 2)
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	if v, ok := lib.FindLatest("state", 0); !ok || v != 7 {
		t.Fatalf("FindLatest = %d, %v; want 7", v, ok)
	}
	for v, want := range golden {
		got, err := lib.Fetch("state", 0, v)
		if v < 5 {
			if !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("fetch v%d behind the window = %v, want ErrNoCheckpoint", v, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("fetch v%d: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d: restored payload differs (%d vs %d bytes)", v, len(got), len(want))
		}
	}

	// The writer's whole node dies: every version must still restore from
	// the neighbor's replicas.
	cl.KillNode(1)
	rescue := newLib(cl, 3, Config{})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{2, 3})
	if v, ok := rescue.FindLatest("state", 0); !ok || v != 7 {
		t.Fatalf("FindLatest after node loss = %d, %v; want 7", v, ok)
	}
	for v := int64(5); v <= 7; v++ {
		got, src, err := rescue.FetchFrom("state", 0, v)
		if err != nil || !bytes.Equal(got, golden[v]) {
			t.Fatalf("neighbor fetch of v%d: err=%v", v, err)
		}
		if src != RestoreNeighbor {
			t.Fatalf("v%d restore source = %v, want neighbor", v, src)
		}
	}
}

// TestFindLatestBelowSkipsHoledChain: losing every replica of one version
// holes it out while the versions around it stay intact. Recovery's
// verified agreement retreats through FindLatestBelow, which must land on
// the newest intact version under the failed one, not merely version-1.
func TestFindLatestBelowSkipsHoledChain(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	rng := rand.New(rand.NewSource(21))
	payload := make([]byte, 6*chunk)
	rng.Read(payload)
	golden := map[int64][]byte{}
	for v := int64(1); v <= 4; v++ { // the window keeps v2, v3, v4
		golden[v] = mutate(rng, payload, chunk, 1)
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	// Destroy every replica of v3: it holes out, v2 and v4 stay intact.
	for _, node := range []int{0, 1} {
		cl.Node(node).Delete(Key("state", 0, 3))
		cl.Node(node).Delete(SealKey(Key("state", 0, 3)))
	}
	if v, ok := lib.FindLatest("state", 0); !ok || v != 4 {
		t.Fatalf("FindLatest = %d, %v; want 4", v, ok)
	}
	if _, _, err := lib.FetchFrom("state", 0, 3); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("fetch of the holed version = %v, want ErrNoCheckpoint", err)
	}
	v, ok := lib.FindLatestBelow("state", 0, 4)
	if !ok || v != 2 {
		t.Fatalf("FindLatestBelow(4) = %d, %v; want the intact v2", v, ok)
	}
	got, err := lib.Fetch("state", 0, 2)
	if err != nil || !bytes.Equal(got, golden[2]) {
		t.Fatalf("retreat target fetch: err=%v", err)
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

// TestDeltaCadenceInterop: the deprecated FullEvery is inert — a writer
// and a reader configured with any value find and restore each other's
// generations.
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

// TestDeltaRebaseOnWorkerRefresh: no generation depends on another, so the
// first generation after the post-recovery refresh (SetWorkerNodes) restores
// alone even when every replica written before the refresh is gone with
// the failed node.
func TestDeltaRebaseOnWorkerRefresh(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	payload := make([]byte, 4*chunk)
	for v := int64(1); v <= 3; v++ {
		payload[0] = byte(v)
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	lib.SetWorkerNodes([]int{0, 1, 2}) // the fault-aware refresh
	payload[0] = 4
	if err := lib.Write("state", 0, 4, payload); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	for v := int64(1); v <= 3; v++ {
		for _, node := range []int{0, 1} {
			cl.Node(node).Delete(Key("state", 0, v))
			cl.Node(node).Delete(SealKey(Key("state", 0, v)))
		}
	}
	got, err := lib.Fetch("state", 0, 4)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-refresh generation without its predecessors: err=%v", err)
	}
}

// BenchmarkFrameStage is the CI allocation gate for the checkpoint staging
// path: a 256 KiB payload framed into a reused buffer (the writer's buffer
// halves are reused the same way), the application-visible work per epoch,
// must stay allocation-free in steady state, like the rest of the hot loops.
func BenchmarkFrameStage(b *testing.B) {
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	buf := make([]byte, 0, len(payload)+headerLen+trailerLen)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[(i*4096+i)%len(payload)] ^= 0xA5
		buf = encodeFrame(buf, 0, int64(i+1), payload)
	}
}

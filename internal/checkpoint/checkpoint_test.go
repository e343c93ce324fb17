package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gaspi"
)

func testCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Config{
		Nodes: nodes,
		Gaspi: gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
	}, func(ctx *cluster.ProcCtx) error { return nil })
	t.Cleanup(cl.Close)
	if _, ok := cl.WaitTimeout(10 * time.Second); !ok {
		t.Fatal("cluster hung")
	}
	return cl
}

// nodeTransport stands in for the framework's checkpoint stream: a push
// from a live node commits the complete frame at the neighbor the way the
// stream's receiver does (StoreReplica: data, then seal); a dead node
// pushes nothing.
type nodeTransport struct {
	cl   *cluster.Cluster
	from int
}

func (t nodeTransport) Push(nb int, key string, blob []byte) error {
	if !t.cl.NodeAlive(t.from) {
		return cluster.ErrNodeDown
	}
	return StoreReplica(t.cl, nb, key, blob)
}

// newLib is New replicating through a nodeTransport.
func newLib(cl *cluster.Cluster, nodeID int, cfg Config) *Library {
	return New(cl, nodeID, cfg, nodeTransport{cl: cl, from: nodeID})
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	payload := []byte("lanczos vectors + alpha + beta")
	blob := EncodeFrame(nil, 7, 42, payload)
	if len(blob) != headerLen+len(payload)+trailerLen {
		t.Fatalf("frame is %d bytes for a %d-byte payload", len(blob), len(payload))
	}
	f, err := DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	if f.Logical != 7 || f.Version != 42 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("logical=%d version=%d payload=%q", f.Logical, f.Version, f.Payload)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(logical uint16, version uint32, payload []byte) bool {
		f, err := DecodeFrame(EncodeFrame(nil, int(logical), int64(version), payload))
		return err == nil && f.Logical == int(logical) && f.Version == int64(version) &&
			bytes.Equal(f.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	blob := EncodeFrame(nil, 1, 1, []byte("data-data-data"))
	// Byte 0 is the magic, 5 and 10 the identity, 16 the length, headerLen
	// the payload, the last one the CRC trailer.
	for _, i := range []int{0, 5, 10, 16, headerLen, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xFF
		if _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption at byte %d: %v", i, err)
		}
	}
	if _, err := DecodeFrame(blob[:10]); !errors.Is(err, ErrCorrupt) {
		t.Fatal("truncated header accepted")
	}
	if _, err := DecodeFrame(blob[:len(blob)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatal("truncated payload accepted")
	}
}

func TestKeyRoundtrip(t *testing.T) {
	k := Key("lanczos", 12, 500)
	name, lr, v, ok := parseKey(k)
	if !ok || name != "lanczos" || lr != 12 || v != 500 {
		t.Fatalf("parse %q: %v %v %v %v", k, name, lr, v, ok)
	}
	for _, bad := range []string{"", "x/y", "cp/a/b/vv", "cp/a/1/7", "other/a/1/v7"} {
		if _, _, _, ok := parseKey(bad); ok {
			t.Fatalf("parsed garbage key %q", bad)
		}
	}
}

func TestWriteFetchLocal(t *testing.T) {
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	if err := lib.Write("state", 0, 1, []byte("v1-data")); err != nil {
		t.Fatal(err)
	}
	got, err := lib.Fetch("state", 0, 1)
	if err != nil || string(got) != "v1-data" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestNeighborRing(t *testing.T) {
	cl := testCluster(t, 5)
	lib := newLib(cl, 2, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 2, 4})
	if nb := lib.Neighbor(); nb != 4 {
		t.Fatalf("neighbor = %d, want 4", nb)
	}
	// Wrap-around.
	lib4 := newLib(cl, 4, Config{})
	defer lib4.Stop()
	lib4.SetWorkerNodes([]int{0, 2, 4})
	if nb := lib4.Neighbor(); nb != 0 {
		t.Fatalf("neighbor = %d, want 0", nb)
	}
	// Fault-aware refresh: node 4 fails.
	lib.SetWorkerNodes([]int{0, 2})
	if nb := lib.Neighbor(); nb != 0 {
		t.Fatalf("refreshed neighbor = %d, want 0", nb)
	}
	// Single survivor: no neighbor.
	lib.SetWorkerNodes([]int{2})
	if nb := lib.Neighbor(); nb != -1 {
		t.Fatalf("lone neighbor = %d, want -1", nb)
	}
}

func TestNeighborCopySurvivesNodeDeath(t *testing.T) {
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	if err := lib.Write("state", 0, 5, []byte("critical")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	// Node 0 (the writer, holding the local copy) dies; the neighbor copy
	// on node 1 must still be fetchable — by a rescue process on node 2.
	cl.KillNode(0)
	rescue := newLib(cl, 2, Config{})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{1, 2})
	got, err := rescue.Fetch("state", 0, 5)
	if err != nil || string(got) != "critical" {
		t.Fatalf("got %q err=%v", got, err)
	}
	v, ok := rescue.FindLatest("state", 0)
	if !ok || v != 5 {
		t.Fatalf("FindLatest = %d ok=%v", v, ok)
	}
}

func TestFindLatestAcrossVersions(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	for v := int64(1); v <= 3; v++ {
		if err := lib.Write("state", 4, v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	v, ok := lib.FindLatest("state", 4)
	if !ok || v != 3 {
		t.Fatalf("latest = %d ok=%v", v, ok)
	}
	if _, ok := lib.FindLatest("state", 99); ok {
		t.Fatal("found checkpoint for unknown rank")
	}
}

// TestFindLatestIgnoresForeignSeals: only a well-formed seal whose version
// matches its key makes a replica visible. A data object sealed with a
// foreign 12-byte layout, or with another version's seal, is as invisible
// as an unsealed one. The three generations it walks back
// through (v3 → v2 → v1) are exactly the window the retention rule keeps
// behind a sealed v3; a fourth write would release v1.
func TestFindLatestIgnoresForeignSeals(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	for v := int64(1); v <= 3; v++ {
		if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	short := make([]byte, 12)
	binary.LittleEndian.PutUint32(short, 0x4b4f4347) // "GCOK"
	binary.LittleEndian.PutUint64(short[4:], 3)
	for _, n := range []int{0, 1} {
		if err := cl.Node(n).PutMeta(SealKey(Key("state", 0, 3)), short); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := lib.FindLatest("state", 0); !ok || v != 2 {
		t.Fatalf("FindLatest with a 12-byte seal on v3 = %d, %v; want 2", v, ok)
	}
	for _, n := range []int{0, 1} {
		if err := cl.Node(n).PutMeta(SealKey(Key("state", 0, 2)), sealFor(7)); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := lib.FindLatest("state", 0); !ok || v != 1 {
		t.Fatalf("FindLatest with v7's seal on v2 = %d, %v; want 1", v, ok)
	}
}

func TestCorruptLocalFallsBackToNeighbor(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	if err := lib.Write("state", 0, 1, []byte("good-data")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	// Corrupt the local copy in place.
	key := Key("state", 0, 1)
	blob, err := cl.Node(0).Get(key, cl.Storage())
	if err != nil {
		t.Fatal(err)
	}
	blob[headerLen] ^= 0xFF
	if err := cl.Node(0).Put(key, blob, cl.Storage()); err != nil {
		t.Fatal(err)
	}
	got, err := lib.Fetch("state", 0, 1)
	if err != nil || string(got) != "good-data" {
		t.Fatalf("got %q err=%v (must fall back to neighbor copy)", got, err)
	}
}

func TestPFSCopy(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{PFSEvery: 2})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	for v := int64(1); v <= 4; v++ {
		if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	// Versions 2 and 4 are on the PFS; both nodes die, PFS survives.
	cl.KillNode(0)
	cl.KillNode(1)
	if _, err := cl.PFS().Get(Key("state", 0, 4)); err != nil {
		t.Fatalf("PFS copy missing: %v", err)
	}
	if _, err := cl.PFS().Get(Key("state", 0, 3)); err == nil {
		t.Fatal("version 3 should not be on the PFS")
	}
}

// TestPruneKeepsRestorableWindow: the retention rule counts generations, not
// version numbers. With a checkpoint every 10 iterations the store keeps the
// generation that just sealed and the two behind it (v40, v50, v60 — the
// generation two back is the oldest thing a recovery can agree on) on
// the local node and on the neighbor alike, and releases the rest.
func TestPruneKeepsRestorableWindow(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	for v := int64(10); v <= 60; v += 10 {
		if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	if _, err := lib.Fetch("state", 0, 30); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("version 30 should be released, got %v", err)
	}
	for _, v := range []int64{40, 50, 60} {
		if _, err := lib.Fetch("state", 0, v); err != nil {
			t.Fatalf("version %d missing: %v", v, err)
		}
	}
	for n := 0; n < 2; n++ {
		if got := familyVersions(cl, n, "state", 0); !slices.Equal(got, []int64{40, 50, 60}) {
			t.Fatalf("node %d holds %v, want [40 50 60]", n, got)
		}
	}
	if s := lib.Stats(); s.Released != 3 {
		t.Fatalf("Released = %d, want 3 (v10, v20, v30)", s.Released)
	}
}

func TestStopRejectsWrites(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	lib.SetWorkerNodes([]int{0, 1})
	lib.Stop()
	lib.Stop() // idempotent
	if err := lib.Write("state", 0, 1, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

func TestNeighborCopyErrorIsRecorded(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	cl.KillNode(1) // neighbor down before the copy
	if err := lib.Write("state", 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	if lib.Err() == nil {
		t.Fatal("copy error not recorded")
	}
	// The local copy is still fine.
	if _, err := lib.Fetch("state", 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleLogicalRanksCoexist(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	for lr := 0; lr < 3; lr++ {
		if err := lib.Write("state", lr, 1, []byte{byte(lr + 10)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	for lr := 0; lr < 3; lr++ {
		got, err := lib.Fetch("state", lr, 1)
		if err != nil || got[0] != byte(lr+10) {
			t.Fatalf("lr %d: got %v err=%v", lr, got, err)
		}
	}
}

func TestFetchFallsBackToPFS(t *testing.T) {
	// Both the writer's node and its neighbor die: only the PFS copy
	// survives, and Fetch must find it.
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{PFSEvery: 1})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	if err := lib.Write("state", 0, 1, []byte("pfs-survivor")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	cl.KillNode(0)
	cl.KillNode(1)
	rescue := newLib(cl, 2, Config{})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{2})
	got, err := rescue.Fetch("state", 0, 1)
	if err != nil || string(got) != "pfs-survivor" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestWriteAfterNeighborRefresh(t *testing.T) {
	// After a fault-aware refresh, new copies must go to the new neighbor.
	cl := testCluster(t, 4)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2, 3})
	if err := lib.Write("state", 0, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	// Node 1 (the neighbor) fails; refresh to the survivors.
	cl.KillNode(1)
	lib.SetWorkerNodes([]int{0, 2, 3})
	if err := lib.Write("state", 0, 2, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	if lib.Neighbor() != 2 {
		t.Fatalf("neighbor = %d", lib.Neighbor())
	}
	// The v2 copy must exist on node 2.
	if _, err := cl.Node(2).Get(Key("state", 0, 2), cl.Storage()); err != nil {
		t.Fatalf("new neighbor lacks the copy: %v", err)
	}
}

func TestGlobalPFSMode(t *testing.T) {
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{Mode: ModeGlobalPFS})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	if err := lib.Write("state", 0, 1, []byte("global")); err != nil {
		t.Fatal(err)
	}
	// Nothing on any node-local store.
	for n := 0; n < 3; n++ {
		if len(cl.Node(n).Keys()) != 0 {
			t.Fatalf("node %d has local copies in PFS mode", n)
		}
	}
	// FindLatest must see the PFS copy; Fetch must return it even after
	// every node died.
	v, ok := lib.FindLatest("state", 0)
	if !ok || v != 1 {
		t.Fatalf("FindLatest = %d, %v", v, ok)
	}
	cl.KillNode(0)
	cl.KillNode(1)
	rescue := newLib(cl, 2, Config{Mode: ModeGlobalPFS})
	defer rescue.Stop()
	got, err := rescue.Fetch("state", 0, 1)
	if err != nil || string(got) != "global" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestPFSModeCostsMoreThanNeighbor(t *testing.T) {
	// Under a controlled storage model (PFS latency far above scheduler
	// noise), the app-visible cost of a global PFS checkpoint must exceed
	// the neighbor-level write — the asymmetry that motivates the paper's
	// library design.
	cl := cluster.New(cluster.Config{
		Nodes: 2,
		Gaspi: gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
		Storage: cluster.StorageModel{
			PFSLatency: 20 * time.Millisecond,
			PFSWidth:   1,
		},
	}, func(ctx *cluster.ProcCtx) error { return nil })
	t.Cleanup(cl.Close)
	cl.Wait()

	payload := bytes.Repeat([]byte{7}, 1<<14)

	neighbor := newLib(cl, 0, Config{})
	defer neighbor.Stop()
	neighbor.SetWorkerNodes([]int{0, 1})
	start := time.Now()
	if err := neighbor.Write("a", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	neighborCost := time.Since(start)
	neighbor.WaitIdle()

	pfs := newLib(cl, 0, Config{Mode: ModeGlobalPFS})
	defer pfs.Stop()
	start = time.Now()
	if err := pfs.Write("b", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	pfsCost := time.Since(start)

	if pfsCost < 20*time.Millisecond {
		t.Fatalf("PFS write cost %v below the modeled latency", pfsCost)
	}
	if pfsCost <= 2*neighborCost {
		t.Fatalf("PFS write %v not clearly above neighbor-level %v", pfsCost, neighborCost)
	}
}

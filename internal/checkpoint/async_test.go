package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gaspi"
)

// testClusterStorage is testCluster with a storage cost model.
func testClusterStorage(t *testing.T, nodes int, m cluster.StorageModel) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.Config{
		Nodes:   nodes,
		Gaspi:   gaspi.Config{Latency: fabric.LatencyModel{Base: time.Microsecond}},
		Storage: m,
	}, func(ctx *cluster.ProcCtx) error { return nil })
	t.Cleanup(cl.Close)
	if _, ok := cl.WaitTimeout(10 * time.Second); !ok {
		t.Fatal("cluster hung")
	}
	return cl
}

func asyncPayload(version int64) []byte {
	p := make([]byte, 256)
	binary.LittleEndian.PutUint64(p, uint64(version))
	for i := 8; i < len(p); i++ {
		p[i] = byte(version) + byte(i)
	}
	return p
}

// TestAsyncWriteHidesLocalCommitCost is the point of the async engine: the
// application-visible Write cost must not include the node-local storage
// commit.
func TestAsyncWriteHidesLocalCommitCost(t *testing.T) {
	const localCost = 30 * time.Millisecond
	cl := testClusterStorage(t, 2, cluster.StorageModel{LocalLatency: localCost})

	syncLib := newLib(cl, 0, Config{})
	defer syncLib.Stop()
	syncLib.SetWorkerNodes([]int{0, 1})
	start := time.Now()
	if err := syncLib.Write("state", 0, 1, asyncPayload(1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < localCost {
		t.Fatalf("sync Write returned in %v, expected >= %v (local commit is synchronous)", d, localCost)
	}

	asyncLib := newLib(cl, 0, Config{CheckpointMode: Async})
	defer asyncLib.Stop()
	asyncLib.SetWorkerNodes([]int{0, 1})
	start = time.Now()
	if err := asyncLib.Write("astate", 0, 1, asyncPayload(1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > localCost/2 {
		t.Fatalf("async Write blocked for %v, expected staging only", d)
	}
	asyncLib.WaitIdle()
	got, err := asyncLib.Fetch("astate", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, asyncPayload(1)) {
		t.Fatal("async payload mismatch after flush")
	}
	if s := asyncLib.Stats(); s.Staged != 1 || s.Flushed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// disciplines names the two commit disciplines for table-driven tests.
var disciplines = map[string]CheckpointMode{"Sync": Sync, "Async": Async}

// TestAsyncDoubleBufferBackPressure verifies the double-buffer discipline
// under both commit disciplines: with the first push held, two checkpoints
// stage without waiting and the third must wait for a buffer half (the
// writer is two epochs behind) — observable as recorded stall time. All
// three generations stay fetchable afterwards: two unsealed generations
// behind a sealed one is exactly the lag the retention window is sized for.
func TestAsyncDoubleBufferBackPressure(t *testing.T) {
	for name, mode := range disciplines {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, 2)
			gate := gatedTransport{cl: cl, grant: make(chan struct{}, 3)}
			lib := New(cl, 0, Config{CheckpointMode: mode}, gate)
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1})
			stalled := make(chan struct{}, 3)
			lib.stallHook = func() { stalled <- struct{}{} }
			for v := int64(1); v <= 2; v++ {
				if err := lib.Write("state", 0, v, asyncPayload(v)); err != nil {
					t.Fatal(err)
				}
			}
			if len(stalled) != 0 {
				t.Fatal("the first two Writes waited for a buffer half")
			}
			third := make(chan error, 1)
			go func() { third <- lib.Write("state", 0, 3, asyncPayload(3)) }()
			<-stalled // v1's push is held, v2 is staged: v3 waits
			for range 3 {
				gate.grant <- struct{}{}
			}
			if err := <-third; err != nil {
				t.Fatal(err)
			}
			lib.WaitIdle()
			s := lib.Stats()
			if s.Staged != 3 || s.Flushed != 3 {
				t.Fatalf("stats = %+v", s)
			}
			if s.StallTime == 0 {
				t.Fatal("third Write should have stalled on the double buffer")
			}
			if s.FlushTime == 0 {
				t.Fatal("no background flush time recorded")
			}
			for v := int64(1); v <= 3; v++ {
				if _, err := lib.Fetch("state", 0, v); err != nil {
					t.Fatalf("version %d after flush: %v", v, err)
				}
			}
		})
	}
}

// framesTransport is a gatedTransport that reports the backing array of
// every frame it is handed to push.
type framesTransport struct {
	gatedTransport
	frames chan *byte
}

func (f framesTransport) Push(nb int, key string, blob []byte) error {
	f.frames <- &blob[0]
	return f.gatedTransport.Push(nb, key, blob)
}

// TestSyncWriterMakesSecondHalfOnDemand: a Sync writer whose flushes finish
// between Writes stages every checkpoint in one buffer half, one frame
// backing array. Only a Write made while that half is in flight creates
// the second, and the Write after it waits for one of the two.
func TestSyncWriterMakesSecondHalfOnDemand(t *testing.T) {
	cl := testCluster(t, 2)
	// One grant and one frame per Write, five Writes.
	tr := framesTransport{gatedTransport{cl: cl, grant: make(chan struct{}, 5)}, make(chan *byte, 5)}
	lib := New(cl, 0, Config{CheckpointMode: Sync}, tr)
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	stalled := make(chan struct{}, 1)
	lib.stallHook = func() { stalled <- struct{}{} }
	for v := int64(1); v <= 2; v++ {
		tr.grant <- struct{}{}
		if err := lib.Write("state", 0, v, asyncPayload(v)); err != nil {
			t.Fatal(err)
		}
		lib.WaitIdle()
	}
	if v1, v2 := <-tr.frames, <-tr.frames; v1 != v2 {
		t.Fatal("two Writes whose flushes finished in between staged into two frames")
	}
	if n := lib.halves.Load(); n != 1 {
		t.Fatalf("%d buffer halves after Writes that never overlapped a flush", n)
	}
	if err := lib.Write("state", 0, 3, asyncPayload(3)); err != nil {
		t.Fatal(err)
	}
	held := <-tr.frames // v3's push has begun and is held: its half is in flight
	if err := lib.Write("state", 0, 4, asyncPayload(4)); err != nil {
		t.Fatal(err)
	}
	if len(stalled) != 0 || lib.halves.Load() != 2 {
		t.Fatalf("the Write beside a held flush stalled (%d) or made no second half (%d halves)", len(stalled), lib.halves.Load())
	}
	fifth := make(chan error, 1)
	go func() { fifth <- lib.Write("state", 0, 5, asyncPayload(5)) }()
	<-stalled // v3 is pushing, v4 is staged: v5 waits
	for range 3 {
		tr.grant <- struct{}{}
	}
	if err := <-fifth; err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	if v4 := <-tr.frames; v4 == held {
		t.Fatal("v4 was staged into the half whose push was held")
	}
	if s := lib.Stats(); s.Staged != 5 || s.Flushed != 5 || s.StallTime == 0 || lib.halves.Load() != 2 {
		t.Fatalf("stats = %+v with %d halves", s, lib.halves.Load())
	}
}

// tearingTransport is a nodeTransport whose push of generation at kills
// the writer's node mid-frame (the node's local copies die with it, exactly
// the scenario neighbor checkpoints exist for). The frame was still in
// flight, so the receiver never commits it.
type tearingTransport struct {
	nodeTransport
	at int64
}

func (t tearingTransport) Push(nb int, key string, blob []byte) error {
	if _, _, v, _ := parseKey(key); v == t.at {
		t.cl.KillNode(t.from)
		return cluster.ErrNodeDown
	}
	return t.nodeTransport.Push(nb, key, blob)
}

// TestAsyncTornFlushNeverRestored is the crash-consistency contract: a
// writer node dying mid-push of the newest version leaves no sealed
// neighbor copy of it, and recovery must restore the previous complete
// version instead.
func TestAsyncTornFlushNeverRestored(t *testing.T) {
	cl := testClusterStorage(t, 2, cluster.StorageModel{})
	lib := New(cl, 0, Config{CheckpointMode: Async}, tearingTransport{nodeTransport{cl, 0}, 2})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})

	// Version 1 flushes completely; version 2's push is torn.
	for v := int64(1); v <= 2; v++ {
		if err := lib.Write("state", 0, v, asyncPayload(v)); err != nil {
			t.Fatal(err)
		}
		lib.WaitIdle()
	}
	if lib.ErrCount() == 0 {
		t.Fatal("the torn push was not recorded")
	}
	if _, ok := cl.Node(1).GetMeta(SealKey(Key("state", 0, 2))); ok {
		t.Fatal("torn v2 must have no sealed neighbor copy")
	}

	// A rescue process on the surviving node agrees on v1, not v2.
	rescue := newLib(cl, 1, Config{})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{1})
	v, ok := rescue.FindLatest("state", 0)
	if !ok || v != 1 {
		t.Fatalf("FindLatest = %d ok=%v, want 1 (v2 is torn)", v, ok)
	}
	got, err := rescue.Fetch("state", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, asyncPayload(1)) {
		t.Fatal("restored payload mismatch")
	}
	if _, err := rescue.Fetch("state", 0, 2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Fetch(torn v2) = %v, want ErrNoCheckpoint", err)
	}
}

// TestAsyncConcurrentWriteRestoreRace is the -race regression test for the
// double buffer: a writer streams versions while readers concurrently run
// FindLatest/Fetch and the neighbor ring is refreshed, with all
// cross-goroutine assertions channel-synchronized. The readers rely on the
// retention window: the version FindLatest names stays fetchable until the
// writer has sealed more than restorableLag further generations, so a fetch
// may lose that race and nothing else.
func TestAsyncConcurrentWriteRestoreRace(t *testing.T) {
	const versions = 120
	cl := testClusterStorage(t, 3, cluster.StorageModel{})
	lib := newLib(cl, 0, Config{CheckpointMode: Async})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})

	errCh := make(chan error, 16)
	writerDone := make(chan struct{})

	go func() {
		defer close(writerDone)
		for v := int64(1); v <= versions; v++ {
			if err := lib.Write("state", 0, v, asyncPayload(v)); err != nil {
				errCh <- fmt.Errorf("write v%d: %w", v, err)
				return
			}
		}
	}()

	// Readers: every observed latest version must be fetchable and intact.
	readerDone := make(chan struct{})
	for r := 0; r < 2; r++ {
		go func() {
			defer func() { readerDone <- struct{}{} }()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				v, ok := lib.FindLatest("state", 0)
				if !ok {
					continue
				}
				got, err := lib.Fetch("state", 0, v)
				if err != nil {
					// Released under the reader: legitimate only once the
					// store has moved past the window that held v.
					if now, _ := lib.FindLatest("state", 0); now-v > restorableLag {
						continue
					}
					errCh <- fmt.Errorf("fetch v%d inside the window: %w", v, err)
					return
				}
				if !bytes.Equal(got, asyncPayload(v)) {
					errCh <- fmt.Errorf("payload mismatch at v%d", v)
					return
				}
			}
		}()
	}

	// Fault-aware neighbor refreshes while flushes are in flight.
	flipDone := make(chan struct{})
	go func() {
		defer close(flipDone)
		rings := [][]int{{0, 1, 2}, {0, 2}, {0, 1}}
		for i := 0; ; i++ {
			select {
			case <-writerDone:
				return
			default:
				lib.SetWorkerNodes(rings[i%len(rings)])
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	<-writerDone
	<-readerDone
	<-readerDone
	<-flipDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	lib.WaitIdle()
	if v, ok := lib.FindLatest("state", 0); !ok || v != versions {
		t.Fatalf("final FindLatest = %d ok=%v, want %d", v, ok, versions)
	}
	if s := lib.Stats(); s.Staged != versions || s.Flushed != versions {
		t.Fatalf("stats = %+v, want %d staged+flushed", s, versions)
	}
}

// failingTransport is a nodeTransport that, once fail is set, fails every
// push from then on (e.g. a frame outgrowing the stream segment).
type failingTransport struct {
	nodeTransport
	fail *atomic.Bool
}

func (t failingTransport) Push(nb int, key string, blob []byte) error {
	if t.fail.Load() {
		return errors.New("push always fails")
	}
	return t.nodeTransport.Push(nb, key, blob)
}

// TestAsyncPruneSparesNeighborOnFailedPush: a generation is released only
// behind one that sealed on the neighbor too, so under a persistently
// failing replication path nothing is released anywhere — the neighbor's
// older sealed replicas are the only off-node copies and a failed push never
// costs it one.
func TestAsyncPruneSparesNeighborOnFailedPush(t *testing.T) {
	cl := testClusterStorage(t, 2, cluster.StorageModel{})
	tr := failingTransport{nodeTransport{cl, 0}, new(atomic.Bool)}
	lib := New(cl, 0, Config{CheckpointMode: Async}, tr)
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})

	// Versions 1-4 replicate normally; the rule has started releasing (v1).
	for v := int64(1); v <= 4; v++ {
		if err := lib.Write("state", 0, v, asyncPayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	window := []int64{2, 3, 4}
	for n := 0; n < 2; n++ {
		if got := familyVersions(cl, n, "state", 0); !slices.Equal(got, window) {
			t.Fatalf("node %d holds %v before the pushes fail, want %v", n, got, window)
		}
	}

	// From now on every push fails; local commits continue.
	tr.fail.Store(true)
	for v := int64(5); v <= 9; v++ {
		if err := lib.Write("state", 0, v, asyncPayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	if lib.ErrCount() == 0 {
		t.Fatal("failing pushes were not recorded")
	}
	if got := familyVersions(cl, 1, "state", 0); !slices.Equal(got, window) {
		t.Fatalf("neighbor holds %v after five failed pushes, want %v untouched", got, window)
	}
	if got := familyVersions(cl, 0, "state", 0); len(got) != 8 {
		t.Fatalf("local store holds %v: nothing may be released behind an unreplicated generation", got)
	}

	// The writer node dies: recovery must still find the neighbor's last
	// successfully replicated version, not nothing.
	cl.KillNode(0)
	rescue := newLib(cl, 1, Config{})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{1})
	v, ok := rescue.FindLatest("state", 0)
	if !ok || v != 4 {
		t.Fatalf("FindLatest = %d ok=%v, want 4 (the neighbor's last good replica)", v, ok)
	}
	if _, err := rescue.Fetch("state", 0, v); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncStopDrainsAndRejects: under both commit disciplines Stop
// completes staged flushes and later Writes fail with ErrStopped.
func TestAsyncStopDrainsAndRejects(t *testing.T) {
	for name, mode := range disciplines {
		t.Run(name, func(t *testing.T) {
			cl := testClusterStorage(t, 2, cluster.StorageModel{})
			lib := newLib(cl, 0, Config{CheckpointMode: mode})
			lib.SetWorkerNodes([]int{0, 1})
			for v := int64(1); v <= 5; v++ {
				if err := lib.Write("state", 0, v, asyncPayload(v)); err != nil {
					t.Fatal(err)
				}
			}
			lib.Stop()
			lib.WaitIdle()
			if err := lib.Write("state", 0, 6, asyncPayload(6)); !errors.Is(err, ErrStopped) {
				t.Fatalf("Write after Stop = %v, want ErrStopped", err)
			}
			if v, ok := lib.FindLatest("state", 0); !ok || v != 5 {
				t.Fatalf("FindLatest after drain = %d ok=%v, want 5", v, ok)
			}
			if _, ok := cl.Node(1).GetMeta(SealKey(Key("state", 0, 5))); !ok {
				t.Fatal("v5 was not replicated before the writer stopped")
			}
		})
	}
}

// TestAsyncStopWriteRace: Stop racing a concurrent Write must either
// accept the checkpoint (drained by the writer) or refuse it with
// ErrStopped — never leak a staged half that deadlocks WaitIdle.
// Covers both commit disciplines (both hand off the same way).
func TestAsyncStopWriteRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		mode := Sync
		if i%2 == 0 {
			mode = Async
		}
		cl := testClusterStorage(t, 2, cluster.StorageModel{})
		lib := newLib(cl, 0, Config{CheckpointMode: mode})
		lib.SetWorkerNodes([]int{0, 1})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for v := int64(1); v <= 100; v++ {
				if err := lib.Write("state", 0, v, asyncPayload(v)); errors.Is(err, ErrStopped) {
					return
				}
			}
		}()
		lib.Stop()
		<-writerDone
		idle := make(chan struct{})
		go func() { lib.WaitIdle(); close(idle) }()
		select {
		case <-idle:
		case <-time.After(10 * time.Second):
			t.Fatal("WaitIdle deadlocked after Stop/Write race (leaked staged buffer)")
		}
	}
}

// TestAsyncGlobalPFSMode: the global PFS checkpoint is Write's own commit
// under Sync — visible when Write returns, nothing staged — and the
// writer's under Async, which backgrounds it like the local commit.
func TestAsyncGlobalPFSMode(t *testing.T) {
	for name, mode := range disciplines {
		t.Run(name, func(t *testing.T) {
			cl := testClusterStorage(t, 2, cluster.StorageModel{})
			lib := newLib(cl, 0, Config{Mode: ModeGlobalPFS, CheckpointMode: mode})
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1})
			if err := lib.Write("state", 0, 1, asyncPayload(1)); err != nil {
				t.Fatal(err)
			}
			if mode == Sync {
				if _, ok := cl.PFS().GetMeta(SealKey(Key("state", 0, 1))); !ok {
					t.Fatal("Sync Write returned before its PFS commit sealed")
				}
			}
			lib.WaitIdle()
			staged := int64(0)
			if mode == Async {
				staged = 1
			}
			if s := lib.Stats(); s.Staged != staged || s.Flushed != staged {
				t.Fatalf("stats = %+v, want %d staged and flushed", s, staged)
			}
			for n := 0; n < 2; n++ {
				if len(cl.Node(n).Keys()) != 0 {
					t.Fatalf("node %d has local objects in PFS mode", n)
				}
			}
			if v, ok := lib.FindLatest("state", 0); !ok || v != 1 {
				t.Fatalf("FindLatest = %d ok=%v", v, ok)
			}
			if _, err := lib.Fetch("state", 0, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package checkpoint

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// The retention rule (checkpoint.go prune). Every ordering below is a hook
// or a channel; none is a sleep.

// familyVersions lists, ascending, the versions of (name, logical) whose
// data object a node's store holds — sealed or not.
func familyVersions(cl *cluster.Cluster, nodeID int, name string, logical int) []int64 {
	var out []int64
	for _, k := range cl.Node(nodeID).Keys() {
		if strings.HasSuffix(k, sealSuffix) {
			continue
		}
		if kn, kl, kv, ok := parseKey(k); ok && kn == name && kl == logical {
			out = append(out, kv)
		}
	}
	slices.Sort(out)
	return out
}

// evolve advances a payload one epoch: every chunk dirtied, or exactly one.
func evolve(payload []byte, chunk int, gen int64, allDirty bool) {
	if !allDirty {
		payload[(int(gen)*chunk)%len(payload)] ^= byte(gen) | 1
		return
	}
	for off := 0; off < len(payload); off += chunk {
		payload[off] ^= byte(gen) | 1
	}
}

// TestReplicateRetentionResidency is the point of the rule: 150 generations
// of a 256 KiB state through the async writer leave three data objects of
// the family per node (the one that sealed and the two behind it), whether
// every chunk of the state changes every epoch or only one does — at every
// sampled instant one more, the generation in flight. The newest three
// generations are fetchable and FindLatest is right.
func TestReplicateRetentionResidency(t *testing.T) {
	const (
		gens  = 150
		size  = 256 << 10
		chunk = 64 << 10
		bound = restorableLag + 1
	)
	for _, c := range []struct {
		name     string
		allDirty bool
	}{
		{"all-dirty", true},
		{"one-chunk-dirty", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := testClusterStorage(t, 3, cluster.StorageModel{})
			lib := newLib(cl, 0, Config{CheckpointMode: Async})
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1, 2})
			payload := make([]byte, size)
			golden := map[int64][]byte{}
			for g := int64(1); g <= gens; g++ {
				evolve(payload, chunk, g, c.allDirty)
				if g > gens-3 {
					golden[g] = bytes.Clone(payload)
				}
				if err := lib.Write("state", 0, g, payload); err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{0, 1} {
					if held := familyVersions(cl, n, "state", 0); len(held) > bound+1 {
						t.Fatalf("gen %d: node %d holds %v, more than %d+1", g, n, held, bound)
					}
				}
			}
			lib.WaitIdle()
			if err := lib.Err(); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1} {
				held := familyVersions(cl, n, "state", 0)
				if len(held) > bound || held[len(held)-1] != gens {
					t.Fatalf("node %d holds %v, want at most %d ending at %d", n, held, bound, gens)
				}
			}
			if held := familyVersions(cl, 2, "state", 0); len(held) != 0 {
				t.Fatalf("node 2 is nobody's neighbor and holds %v", held)
			}
			if v, ok := lib.FindLatest("state", 0); !ok || v != gens {
				t.Fatalf("FindLatest = %d, %v; want %d", v, ok, gens)
			}
			for v, want := range golden {
				got, _, err := lib.FetchFrom("state", 0, v)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("fetch v%d (newest-%d): err=%v", v, gens-v, err)
				}
			}
			held := int64(len(familyVersions(cl, 0, "state", 0)))
			if r := lib.Stats().Released; r != gens-held {
				t.Fatalf("Released = %d with %d of %d generations held", r, held, gens)
			}
		})
	}
}

// TestReplicateReleaseDeletesSealFirst: a generation leaves a store seal
// first. Between the two deletions (releaseHook) it is already invisible to
// a seal scan, and whatever a scan does name still has its data
// — a concurrent recovery can never be handed a sealed key whose data is
// gone. Deleting in map-iteration order let it.
func TestReplicateReleaseDeletesSealFirst(t *testing.T) {
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	hooked := 0
	lib.releaseHook = func(nodeID int, dataKeys []string) {
		node := cl.Node(nodeID)
		going := map[int64]bool{}
		for _, key := range dataKeys {
			hooked++
			_, _, version, _ := parseKey(key)
			going[version] = true
			if _, ok := node.GetMeta(SealKey(key)); ok {
				t.Errorf("node %d: v%d's seal still present when its data is about to go", nodeID, version)
			}
			if _, ok := node.Size(key); !ok {
				t.Errorf("node %d: v%d's data gone before the hook", nodeID, version)
			}
		}
		for v, refs := range lib.sealScan("state", 0) {
			for _, r := range refs {
				if r.node == nodeID && going[v] {
					t.Errorf("seal scan still names v%d on node %d", v, nodeID)
				}
				if _, ok := cl.Node(r.node).Size(Key("state", 0, v)); !ok {
					t.Errorf("seal scan names v%d on node %d, whose data is gone", v, r.node)
				}
			}
		}
		if v, ok := lib.FindLatest("state", 0); ok {
			if _, err := lib.Fetch("state", 0, v); err != nil {
				t.Errorf("mid-release FindLatest = v%d is not fetchable: %v", v, err)
			}
		}
	}
	for v := int64(1); v <= 6; v++ {
		if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	// v1..v3 released, on two nodes each.
	if hooked != 6 {
		t.Fatalf("release hook ran %d times, want 6", hooked)
	}
}

// TestReplicateTornWaveAgreesInsideWindow: the checkpoint wave of generation
// g is torn — member 0's node dies in the middle of its push of g,
// while its peers seal g and, a generation ahead, g+1, and run their prunes
// (members 1 and 2; member 3's neighbor was the dead node, so it releases
// nothing). Member 0's family is then two generations behind its peers',
// the farthest the double buffer lets it trail. The group minimum (g-1) must
// be fetchable by every member from what its own prune left, for four
// consecutive tear points and for both kinds of state.
func TestReplicateTornWaveAgreesInsideWindow(t *testing.T) {
	const (
		chunk   = 1 << 10
		members = 4
	)
	for _, allDirty := range []bool{true, false} {
		for g := int64(9); g < 13; g++ {
			t.Run(fmt.Sprintf("allDirty=%v/g=%d", allDirty, g), func(t *testing.T) {
				cl := testClusterStorage(t, members+1, cluster.StorageModel{})
				cfg := Config{CheckpointMode: Async}
				libs := make([]*Library, members)
				payloads := make([][]byte, members)
				golden := make([]map[int64][]byte, members)
				for m := range libs {
					var tr Transport = nodeTransport{cl, m}
					if m == 0 {
						tr = tearingTransport{nodeTransport{cl, 0}, g}
					}
					libs[m] = New(cl, m, cfg, tr)
					defer libs[m].Stop()
					libs[m].SetWorkerNodes([]int{0, 1, 2, 3})
					payloads[m] = bytes.Repeat([]byte{byte(m + 1)}, 6*chunk+17)
					golden[m] = map[int64][]byte{}
				}
				write := func(m int, v int64) {
					t.Helper()
					evolve(payloads[m], chunk, v, allDirty)
					golden[m][v] = bytes.Clone(payloads[m])
					if err := libs[m].Write("state", m, v, payloads[m]); err != nil {
						t.Fatal(err)
					}
				}
				for v := int64(1); v < g; v++ {
					for m := range libs {
						write(m, v)
					}
				}
				for _, l := range libs {
					l.WaitIdle()
				}
				write(0, g)
				libs[0].WaitIdle()
				if _, ok := cl.Node(1).GetMeta(SealKey(Key("state", 0, g))); ok {
					t.Fatalf("torn v%d has a sealed neighbor copy", g)
				}
				for m := 1; m < members; m++ {
					write(m, g)
					write(m, g+1)
				}
				for _, l := range libs {
					l.WaitIdle()
				}
				for _, m := range []int{1, 2} {
					held := familyVersions(cl, m, "state", m)
					if libs[m].Stats().Released == 0 || held[len(held)-1] != g+1 || len(held) > restorableLag+1 {
						t.Fatalf("member %d holds %v: its prune behind v%d has not run", m, held, g+1)
					}
				}

				// Recovery: a rescue on the spare node adopts family 0, the
				// survivors refresh their ring, everyone proposes its newest
				// restorable generation and the group takes the minimum.
				rescue := newLib(cl, members, cfg)
				defer rescue.Stop()
				group := append([]*Library{rescue}, libs[1:]...)
				agreed := int64(1 << 62)
				for m, l := range group {
					l.SetWorkerNodes([]int{1, 2, 3, 4})
					v, ok := l.FindLatest("state", m)
					if !ok {
						t.Fatalf("member %d: nothing restorable", m)
					}
					agreed = min(agreed, v)
				}
				if agreed != g-1 {
					t.Fatalf("group minimum = %d, want %d (member 0's v%d is torn)", agreed, g-1, g)
				}
				for m, l := range group {
					got, _, err := l.FetchFrom("state", m, agreed)
					if err != nil {
						t.Fatalf("member %d cannot fetch the agreed v%d (holds %v locally): %v",
							m, agreed, familyVersions(cl, l.nodeID, "state", m), err)
					}
					if !bytes.Equal(got, golden[m][agreed]) {
						t.Fatalf("member %d: v%d mis-assembled", m, agreed)
					}
				}
			})
		}
	}
}

// gatedTransport holds every push until the test grants it, then commits the
// replica like the stream receiver does.
type gatedTransport struct {
	cl    *cluster.Cluster
	grant chan struct{} // one token per push
}

func (g gatedTransport) Push(nb int, key string, blob []byte) error {
	<-g.grant
	return StoreReplica(g.cl, nb, key, blob)
}

// TestReplicateSyncBacklogAnchorsOnPushed: under Sync, Write commits locally
// before its push, so the local store runs ahead of the neighbor by the
// generations in the writer's double buffer. With v4's push stuck, v4 and v5
// return and v6's Write waits for a free half. The rule anchors on the
// generation whose push just finished, never on the newest local one: while
// the pushes are stuck the neighbor keeps every copy it has (they are all
// the off-node copies there are), and as they drain both stores converge on
// the same window.
func TestReplicateSyncBacklogAnchorsOnPushed(t *testing.T) {
	cl := testCluster(t, 2)
	// Versions 1-3 replicate at once; v4..v12 wait for the test.
	gate := gatedTransport{cl: cl, grant: make(chan struct{}, 3)}
	for range 3 {
		gate.grant <- struct{}{}
	}
	lib := New(cl, 0, Config{CheckpointMode: Sync}, gate)
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	for v := int64(1); v <= 3; v++ {
		if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()

	// The writer announces a flush (flush hook) only after the previous
	// one's prune returned: that is the ordering the asserts below need.
	started := make(chan int64, 9) // one send per flush, v4..v12
	lib.SetFlushHook(func(_ int, version int64) { started <- version })
	stalled := make(chan struct{}, 9)
	lib.stallHook = func() { stalled <- struct{}{} }
	for v := int64(4); v <= 5; v++ {
		if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	writeErr := make(chan error, 1)
	go func() {
		for v := int64(6); v <= 12; v++ {
			if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()
	if v := <-started; v != 4 {
		t.Fatalf("writer started on v%d, want 4", v)
	}
	<-stalled // v6's Write waits: v4 is pushing, v5 is staged
	if got := familyVersions(cl, 0, "state", 0); !slices.Equal(got, []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("local store holds %v with v4's push stuck: nothing behind an unreplicated generation may go", got)
	}
	if got := familyVersions(cl, 1, "state", 0); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("neighbor holds %v with the pushes stuck, want [1 2 3]", got)
	}
	for v := int64(4); v <= 12; v++ {
		gate.grant <- struct{}{}
		if v < 12 {
			<-started // v+1 picked up: v's prune has run
		} else {
			if err := <-writeErr; err != nil {
				t.Fatal(err)
			}
			lib.WaitIdle()
		}
		want := []int64{v - 2, v - 1, v}
		if got := familyVersions(cl, 1, "state", 0); !slices.Equal(got, want) {
			t.Fatalf("after v%d's push the neighbor holds %v, want %v", v, got, want)
		}
		// v+1 is staged and Write may have committed v+2 meanwhile.
		local := familyVersions(cl, 0, "state", 0)
		if newest := local[len(local)-1]; local[0] != v-2 || newest < min(v+1, 12) || newest > min(v+2, 12) {
			t.Fatalf("after v%d's push the local store holds %v, want %d..%d or ..%d", v, local, v-2, min(v+1, 12), min(v+2, 12))
		}
	}
	if s := lib.Stats(); s.StallTime == 0 || s.Staged != 12 || s.Flushed != 12 {
		t.Fatalf("stats = %+v: Sync Write must stall on the double buffer", s)
	}
}

// TestReplicateSkipsQueuedFlushAfterAbort: once the owning process has died
// (BindAbort's channel closed), a flush not yet begun is skipped whole under
// either commit discipline — no flush hook, no push — while the push already
// in flight is the transport's to finish.
func TestReplicateSkipsQueuedFlushAfterAbort(t *testing.T) {
	for name, mode := range disciplines {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, 2)
			gate := gatedTransport{cl: cl, grant: make(chan struct{}, 2)}
			lib := New(cl, 0, Config{CheckpointMode: mode}, gate)
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1})
			abort := make(chan struct{})
			lib.BindAbort(abort)
			started := make(chan int64, 2)
			lib.SetFlushHook(func(_ int, version int64) { started <- version })
			for v := int64(1); v <= 2; v++ {
				if err := lib.Write("state", 0, v, []byte{byte(v)}); err != nil {
					t.Fatal(err)
				}
			}
			if v := <-started; v != 1 {
				t.Fatalf("writer started on v%d, want 1", v)
			}
			// v1's push is held at the gate and v2 is staged: the process dies.
			close(abort)
			gate.grant <- struct{}{}
			gate.grant <- struct{}{}
			lib.WaitIdle()
			select {
			case v := <-started:
				t.Fatalf("flush of v%d began after the process died", v)
			default:
			}
			if len(gate.grant) != 1 {
				t.Fatal("v2 was pushed after the process died")
			}
			if got := familyVersions(cl, 1, "state", 0); !slices.Equal(got, []int64{1}) {
				t.Fatalf("neighbor holds %v, want [1]: only the push in flight lands", got)
			}
		})
	}
}

// TestReplicateStrandedReplicasBoundedPerRecovery counts what a recovery
// leaves behind. The rule works on the local store and the current neighbor;
// a store that stops being either — the former neighbor after the ring
// moved, the victim's node and the victim's neighbor after a rescue adopted
// the family elsewhere — keeps the window it held at that moment and never
// more: at most restorableLag+1 generations per family per such store per
// recovery, whatever the job writes afterwards. A store that becomes the
// family's neighbor again is brought back under the rule.
func TestReplicateStrandedReplicasBoundedPerRecovery(t *testing.T) {
	const (
		chunk  = 1 << 10
		window = restorableLag + 1
	)
	cl := testCluster(t, 4)
	cfg := Config{}
	payload := bytes.Repeat([]byte{7}, 8*chunk)
	v := int64(0)
	run := func(l *Library, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			v++
			evolve(payload, chunk, v, false)
			if err := l.Write("state", 0, v, payload); err != nil {
				t.Fatal(err)
			}
		}
		l.WaitIdle()
	}
	count := func(node int) int { return len(familyVersions(cl, node, "state", 0)) }

	owner := newLib(cl, 0, cfg)
	owner.SetWorkerNodes([]int{0, 1, 2})
	run(owner, 23)
	if count(1) > window || count(1) == 0 || count(2) != 0 {
		t.Fatalf("before any recovery: node 1 holds %d, node 2 holds %d", count(1), count(2))
	}

	// Recovery 1 (some other rank's): the ring moves, node 2 is the neighbor.
	owner.SetWorkerNodes([]int{0, 2, 3})
	stranded1 := familyVersions(cl, 1, "state", 0)
	run(owner, 25)
	if got := familyVersions(cl, 1, "state", 0); !slices.Equal(got, stranded1) || len(got) > window {
		t.Fatalf("former neighbor holds %v, held %v when the ring moved (window %d)", got, stranded1, window)
	}
	if count(0) > window || count(2) > window {
		t.Fatalf("after the move: local %d, new neighbor %d, window %d", count(0), count(2), window)
	}

	// Recovery 2: the owner process dies (its node stays up), a rescue on
	// node 3 adopts the family; its neighbor wraps around to node 1.
	owner.Stop()
	stranded0, stranded2 := familyVersions(cl, 0, "state", 0), familyVersions(cl, 2, "state", 0)
	rescue := newLib(cl, 3, cfg)
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{1, 2, 3})
	if latest, ok := rescue.FindLatest("state", 0); !ok || latest != v {
		t.Fatalf("rescue FindLatest = %d, %v; want %d", latest, ok, v)
	}
	run(rescue, 25)
	if got := familyVersions(cl, 0, "state", 0); !slices.Equal(got, stranded0) || len(got) > window {
		t.Fatalf("victim's node holds %v, held %v at its death", got, stranded0)
	}
	if got := familyVersions(cl, 2, "state", 0); !slices.Equal(got, stranded2) || len(got) > window {
		t.Fatalf("victim's neighbor holds %v, held %v at the death", got, stranded2)
	}
	if count(3) > window || count(1) > window {
		t.Fatalf("rescue's stores: local %d, neighbor %d, window %d", count(3), count(1), window)
	}
	// Node 1 is a neighbor again: recovery 1's leftovers there are gone.
	if got := familyVersions(cl, 1, "state", 0); got[0] <= stranded1[len(stranded1)-1] {
		t.Fatalf("node 1 holds %v: generations stranded by recovery 1 (%v) outlived its return to the ring", got, stranded1)
	}
	if total := count(0) + count(1) + count(2) + count(3); total > 4*window {
		t.Fatalf("%d generations resident after %d written and two recoveries", total, v)
	}
}

// TestDeltaSparseBytesUnchanged: however little of the state changed, a
// generation is the whole frame — the stored replica and a shadowed
// primary's push, framed into its reused buffer, are both exactly the bytes
// EncodeFrame writes for the payload into fresh memory.
func TestDeltaSparseBytesUnchanged(t *testing.T) {
	const chunk = 1 << 10
	cl := testCluster(t, 2)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1})
	var buf []byte
	payload := bytes.Repeat([]byte{9}, 5*chunk+100)
	for v := int64(10); v <= 12; v++ {
		payload[int(v)*chunk/4] ^= 0x55 // one byte per generation
		if err := lib.Write("state", 2, v, payload); err != nil {
			t.Fatal(err)
		}
		want := EncodeFrame(nil, 2, v, payload)
		if len(want) != headerLen+len(payload)+trailerLen {
			t.Fatalf("v%d: frame is %d bytes for a %d-byte payload", v, len(want), len(payload))
		}
		stored, err := cl.Node(0).Get(Key("state", 2, v), cl.Storage())
		if err != nil || !bytes.Equal(stored, want) {
			t.Fatalf("v%d: stored replica differs from the frame (err=%v)", v, err)
		}
		if buf = EncodeFrame(buf, 2, v, payload); !bytes.Equal(buf, want) {
			t.Fatalf("v%d: pushed frame differs from the stored one", v)
		}
	}
	lib.WaitIdle()
}

// TestDeltaMirrorValidAcrossBases: a shadow keeps the current frame, frame
// after frame, whether the state changes everywhere or in one chunk per
// epoch.
func TestDeltaMirrorValidAcrossBases(t *testing.T) {
	const chunk = 1 << 10
	var buf []byte
	var k shadowKeep
	payload := bytes.Repeat([]byte{1}, 6*chunk+9)
	for v := int64(1); v <= 24; v++ {
		evolve(payload, chunk, v, v <= 10 || v > 20)
		buf = EncodeFrame(buf, 5, v, payload)
		if err := k.hand(buf); err != nil {
			t.Fatalf("keep v%d: %v", v, err)
		}
		if !k.ok || k.f.Version != v || !bytes.Equal(k.f.Payload, payload) {
			t.Fatalf("after v%d: ok=%v version=%d", v, k.ok, k.f.Version)
		}
	}
}

package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// TestRestoreFallsBackNeighborThenPFS is the whole-node-failure
// regression test: a checkpoint whose node-local copy is destroyed by a
// node failure must restore from the neighbor replica, and when the
// neighbor node dies too, from the PFS copy. The source must be the
// cheapest tier that holds a sealed replica, every time. The subtests set
// the deprecated FullEvery, which changes nothing.
func TestRestoreFallsBackNeighborThenPFS(t *testing.T) {
	for _, fullEvery := range []int{0, 4} {
		t.Run(fmt.Sprintf("FullEvery=%d", fullEvery), func(t *testing.T) {
			cl := testCluster(t, 4)
			payload := []byte("lanczos state v1")

			// The victim worker lives on node 1; its neighbor in the worker
			// ring {1,2,3} is node 2, and every version also goes to the PFS.
			victim := newLib(cl, 1, Config{PFSEvery: 1, FullEvery: fullEvery})
			defer victim.Stop()
			victim.SetWorkerNodes([]int{1, 2, 3})
			if err := victim.Write("state", 0, 1, payload); err != nil {
				t.Fatal(err)
			}
			victim.WaitIdle()

			// Intact node: the local copy wins.
			got, src, err := victim.FetchFrom("state", 0, 1)
			if err != nil || !bytes.Equal(got, payload) || src != RestoreLocal {
				t.Fatalf("local fetch: src=%v err=%v", src, err)
			}

			// The victim's whole node dies, wiping its local store. A rescue
			// on node 3 (whose ring neighbor among the survivors {2,3} is
			// node 2 — exactly where the victim's replica was pushed) must
			// restore from the neighbor replica, not from the PFS copy
			// beside it.
			cl.KillNode(1)
			rescue := newLib(cl, 3, Config{FullEvery: fullEvery})
			defer rescue.Stop()
			rescue.SetWorkerNodes([]int{2, 3})
			if v, ok := rescue.FindLatest("state", 0); !ok || v != 1 {
				t.Fatalf("FindLatest after node loss: v=%d ok=%v", v, ok)
			}
			for i := 0; i < 200; i++ {
				got, src, err = rescue.FetchFrom("state", 0, 1)
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("neighbor fetch %d: err=%v", i, err)
				}
				if src != RestoreNeighbor {
					t.Fatalf("fetch %d: restore source = %v, want neighbor", i, src)
				}
			}

			// The replica node dies too: only the PFS copy remains.
			cl.KillNode(2)
			if v, ok := rescue.FindLatest("state", 0); !ok || v != 1 {
				t.Fatalf("FindLatest after double node loss: v=%d ok=%v", v, ok)
			}
			got, src, err = rescue.FetchFrom("state", 0, 1)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("PFS fetch: err=%v", err)
			}
			if src != RestorePFS {
				t.Fatalf("restore source = %v, want pfs", src)
			}
		})
	}
}

// TestRestoreFallbackExhausted: with no PFS copy configured, destroying
// both the local store and the replica node leaves nothing — FindLatest
// must report no version and FetchFrom must fail cleanly, which is what
// lets recovery agree on an older (or no) version instead of hanging on a
// replica that exists nowhere.
func TestRestoreFallbackExhausted(t *testing.T) {
	cl := testCluster(t, 3)
	lib := newLib(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	if err := lib.Write("state", 0, 1, []byte("only copy")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	cl.KillNode(0) // local
	cl.KillNode(1) // neighbor replica
	survivor := newLib(cl, 2, Config{})
	defer survivor.Stop()
	survivor.SetWorkerNodes([]int{2})
	if v, ok := survivor.FindLatest("state", 0); ok {
		t.Fatalf("FindLatest found v%d with every replica destroyed", v)
	}
	_, src, err := survivor.FetchFrom("state", 0, 1)
	if !errors.Is(err, ErrNoCheckpoint) || src != RestoreNone {
		t.Fatalf("want ErrNoCheckpoint/none, got src=%v err=%v", src, err)
	}
}

// TestFetchServesNextSealedReplica: the replicas FetchFrom would try first
// are broken in each of the ways a failure leaves them — CRC-corrupt data,
// a node killed between the seal scan and the read, a data object whose
// seal never landed — and the fetch must serve the next sealed replica in
// tier order (local → neighbor → remote → PFS), never the unsealed object.
// The writer on node 0 seals v1 locally, on its neighbor node 1 and on the
// PFS; the reader on node 2 has node 1 as its neighbor, so its tier order
// is node 1, node 0 (remote), PFS.
func TestFetchServesNextSealedReplica(t *testing.T) {
	const (
		corrupt  = "crc-corrupt"
		killed   = "node-killed-after-scan"
		unsealed = "data-without-seal"
	)
	for _, c := range []struct {
		damage string
		nodes  []int // broken first, in the reader's tier order
		want   RestoreSource
	}{
		{corrupt, []int{1}, RestoreRemote},
		{corrupt, []int{1, 0}, RestorePFS},
		{killed, []int{1}, RestoreRemote},
		{killed, []int{1, 0}, RestorePFS},
		{unsealed, []int{1}, RestoreRemote},
		{unsealed, []int{1, 0}, RestorePFS},
	} {
		t.Run(fmt.Sprintf("%s/%d", c.damage, len(c.nodes)), func(t *testing.T) {
			cl := testCluster(t, 3)
			payload := []byte("the sealed state of v1")
			writer := newLib(cl, 0, Config{PFSEvery: 1})
			defer writer.Stop()
			writer.SetWorkerNodes([]int{0, 1, 2})
			if err := writer.Write("state", 0, 1, payload); err != nil {
				t.Fatal(err)
			}
			writer.WaitIdle()
			reader := newLib(cl, 2, Config{})
			defer reader.Stop()
			reader.SetWorkerNodes([]int{1, 2})

			key := Key("state", 0, 1)
			decoy := encodeFrame(nil, 0, 1, []byte("an unsealed copy of v1"))
			for _, n := range c.nodes {
				switch c.damage {
				case corrupt:
					blob, err := cl.Node(n).Get(key, cl.Storage())
					if err != nil {
						t.Fatal(err)
					}
					blob[headerLen] ^= 0xFF
					if err := cl.Node(n).Put(key, blob, cl.Storage()); err != nil {
						t.Fatal(err)
					}
				case unsealed:
					cl.Node(n).Delete(SealKey(key))
					if err := cl.Node(n).Put(key, decoy, cl.Storage()); err != nil {
						t.Fatal(err)
					}
				}
			}
			if v, ok := reader.FindLatest("state", 0); !ok || v != 1 {
				t.Fatalf("FindLatest = %d, %v; want 1", v, ok)
			}
			var read []int
			reader.readHook = func(node int) {
				read = append(read, node)
				if c.damage == killed && slices.Contains(c.nodes, node) {
					cl.KillNode(node)
				}
			}
			got, src, err := reader.FetchFrom("state", 0, 1)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("fetch: %q, %v", got, err)
			}
			if src != c.want {
				t.Fatalf("served from %v, want %v (read %v)", src, c.want, read)
			}
			if c.damage == unsealed {
				if slices.ContainsFunc(read, func(n int) bool { return slices.Contains(c.nodes, n) }) {
					t.Fatalf("read %v: an unsealed object was read", read)
				}
			} else if !slices.Equal(read[:len(c.nodes)], c.nodes) {
				t.Fatalf("read %v, want the broken replicas %v tried first", read, c.nodes)
			}
		})
	}
}

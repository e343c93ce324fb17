package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestRestoreFallsBackNeighborThenPFS is the whole-node-failure
// regression test: a checkpoint whose node-local copy is destroyed by a
// node failure must restore from the neighbor replica, and when the
// neighbor node dies too, from the PFS copy. The frame is 16 bytes of
// payload — one stripe — so the source must be the cheapest tier every
// time: the striped fetcher used to hand such a blob's only stripe to
// whichever source goroutine dequeued first, and the PFS served 3 of 200.
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

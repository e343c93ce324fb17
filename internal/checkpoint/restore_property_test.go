package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Property-based restore check, driven by the chaos-fuzzer methodology:
// random histories and random damage, with one safety property that must
// hold for every shape — a version the library CLAIMS restorable
// (FindLatest / FindLatestBelow) must restore bit-exactly. The claim set
// may legitimately shrink under damage; it must never lie.

// deltaChainTrial is one randomized shape: a run of versions with random
// dirtiness (including payload grow/shrink), then random seal/frame
// destruction, then claim-set verification from both the writer's store
// and a rescue reading the neighbor replicas.
func deltaChainTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	chunk := 256 << rng.Intn(4)    // 256B..2KiB
	last := int64(3 + rng.Intn(8)) // versions 1..last

	cl := testCluster(t, 4)
	lib := newLib(cl, 1, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{1, 2, 3})

	payload := make([]byte, (4+rng.Intn(8))*chunk+rng.Intn(chunk))
	rng.Read(payload)
	golden := map[int64][]byte{}
	for v := int64(1); v <= last; v++ {
		switch rng.Intn(4) {
		case 0: // grow
			pad := make([]byte, rng.Intn(3*chunk))
			rng.Read(pad)
			payload = append(payload, pad...)
		case 1: // shrink (never to empty)
			if cut := rng.Intn(len(payload) / 2); cut > 0 {
				payload = payload[:len(payload)-cut]
			}
		}
		total := (len(payload) + chunk - 1) / chunk
		golden[v] = mutate(rng, payload, chunk, rng.Intn(total+1))
		if err := lib.Write("state", 0, v, payload); err != nil {
			t.Fatal(err)
		}
	}
	lib.WaitIdle()
	if err := lib.Err(); err != nil {
		t.Fatal(err)
	}

	// Random destruction, sparing the oldest generation the retention rule
	// kept (so liveness below is checkable): torn
	// seals (the crash window between a flush and its seal), holed frames,
	// and single-holder losses.
	holders := []int{1, 2, 3}
	floor := familyVersions(cl, 1, "state", 0)[0]
	for v := floor + 1; v <= last; v++ {
		if rng.Intn(3) != 0 {
			continue
		}
		key := Key("state", 0, v)
		switch rng.Intn(3) {
		case 0: // torn: the seal never landed anywhere
			for _, n := range holders {
				cl.Node(n).Delete(SealKey(key))
			}
		case 1: // holed: frame and seal gone everywhere
			for _, n := range holders {
				cl.Node(n).Delete(key)
				cl.Node(n).Delete(SealKey(key))
			}
		default: // one holder lost its copy; the other replica survives
			n := holders[rng.Intn(len(holders))]
			cl.Node(n).Delete(key)
			cl.Node(n).Delete(SealKey(key))
		}
	}

	// The safety property, from the writer's view and from a rescue on
	// the neighbor: every claimed version reassembles bit-exactly.
	rescue := newLib(cl, 2, Config{})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{2, 3})
	for name, reader := range map[string]*Library{"writer": lib, "rescue": rescue} {
		claimed := 0
		v, ok := reader.FindLatest("state", 0)
		for ok {
			claimed++
			got, _, err := reader.FetchFrom("state", 0, v)
			if err != nil {
				t.Fatalf("%s: claimed v%d unrestorable: %v", name, v, err)
			}
			if !bytes.Equal(got, golden[v]) {
				t.Fatalf("%s: claimed v%d restored wrong (%d vs %d bytes)",
					name, v, len(got), len(golden[v]))
			}
			v, ok = reader.FindLatestBelow("state", 0, v)
		}
		// Liveness: the window's oldest generation was never damaged, so
		// the claim set cannot be empty.
		if claimed == 0 {
			t.Fatalf("%s: empty claim set with version %d intact", name, floor)
		}
	}
}

// TestDeltaChainReassemblyProperty sweeps the randomized trials. Every
// trial is deterministic in its seed, so a failure report names the
// reproducing shape directly. (The name predates the single frame kind.)
func TestDeltaChainReassemblyProperty(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(9000 + trial)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			deltaChainTrial(t, seed)
		})
	}
}

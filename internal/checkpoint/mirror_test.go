package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Hot-shadow mirror tests: the encoder→apply roundtrip a shadowed
// primary streams every iteration, the torn-tail defenses (damaged
// bytes, skipped generations, forked chains), and the allocation gate
// on the apply loop — the shadow mirrors every iteration of a healthy
// run, so its steady state must be allocation-free like the other hot
// paths.

// TestMirrorRoundtrip drives a full/delta chain through a LiveMirror
// and checks the invariant takeover depends on: after every applied
// frame the snapshot is bit-identical to the primary's payload at the
// version the mirror reports.
func TestMirrorRoundtrip(t *testing.T) {
	const chunk = 256
	enc := NewMirrorEncoder(chunk, 4)
	m := NewLiveMirror()
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 5*chunk+17)
	rng.Read(payload)

	fulls, deltas := 0, 0
	for v := int64(1); v <= 12; v++ {
		payload[rng.Intn(len(payload))] ^= 0xA5
		blob := enc.EncodeNext(3, v, payload)
		if frameChain(blob).kind == KindFull {
			fulls++
		} else {
			deltas++
		}
		if err := m.Apply(blob); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		got, ver, ok := m.Snapshot()
		if !ok || ver != v || !bytes.Equal(got, payload) {
			t.Fatalf("v%d: snapshot ok=%v ver=%d match=%v", v, ok, ver, bytes.Equal(got, payload))
		}
	}
	// fullEvery=4: v1 full, then every 4th frame after a base.
	if fulls != 3 || deltas != 9 {
		t.Fatalf("cadence: %d full + %d delta frames, want 3+9", fulls, deltas)
	}
	if m.Applied() != 12 || m.Torn() {
		t.Fatalf("applied=%d torn=%v", m.Applied(), m.Torn())
	}
}

// TestMirrorAndStoreChainsShareOneEncoder feeds one payload sequence
// (random sizes, random dirty fraction, a re-base in the middle) through
// the Library's store path and the mirror path: for every cadence both
// chains make the same full/delta decision at every generation, the store
// chain restores and the mirror chain applies to the last payload, and
// only FullEvery > 1 pays for chunk hashes.
func TestMirrorAndStoreChainsShareOneEncoder(t *testing.T) {
	for _, fullEvery := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("FullEvery=%d", fullEvery), func(t *testing.T) {
			const chunk, last, rebaseAt = 512, int64(14), int64(6)
			cl := testCluster(t, 3)
			lib := newLib(cl, 0, Config{ChunkBytes: chunk, FullEvery: fullEvery})
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1, 2})
			enc := NewMirrorEncoder(chunk, fullEvery)
			m := NewLiveMirror()

			rng := rand.New(rand.NewSource(int64(40 + fullEvery)))
			payload := make([]byte, 0, 16*chunk)
			fulls := 0
			for v := int64(1); v <= last; v++ {
				payload = payload[:1+rng.Intn(cap(payload))]
				for i, dirty := 0, rng.Intn(len(payload)/chunk+2); i < dirty; i++ {
					payload[rng.Intn(len(payload))] ^= byte(1 + rng.Intn(255))
				}
				if v == rebaseAt {
					lib.SetWorkerNodes([]int{0, 1, 2})
					enc.Rebase()
				}
				if err := lib.Write("state", 0, v, payload); err != nil {
					t.Fatal(err)
				}
				seal, ok := cl.Node(0).GetMeta(SealKey(Key("state", 0, v)))
				_, stored, sealed := parseSeal(seal)
				if !ok || !sealed {
					t.Fatalf("v%d: no local seal after a Sync write", v)
				}
				blob := enc.EncodeNext(0, v, payload)
				if mirrored := frameChain(blob).kind; mirrored != stored.kind {
					t.Fatalf("v%d: store wrote a %v frame, mirror a %v frame", v, stored.kind, mirrored)
				}
				if stored.kind == KindFull {
					fulls++
				} else if fullEvery <= 1 || v == 1 || v == rebaseAt {
					t.Fatalf("v%d: delta frame where the cadence requires a full base", v)
				}
				if err := m.Apply(blob); err != nil {
					t.Fatalf("v%d: %v", v, err)
				}
			}
			lib.WaitIdle()
			if fullEvery <= 1 && fulls != int(last) {
				t.Fatalf("%d of %d generations full, want all", fulls, last)
			}
			if fullEvery > 1 && fulls == int(last) {
				t.Fatal("no delta frame in 14 generations; test vacuous")
			}
			got, err := lib.Fetch("state", 0, last)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("store chain does not restore the last payload: err=%v", err)
			}
			img, ver, ok := m.Snapshot()
			if !ok || ver != last || !bytes.Equal(img, payload) {
				t.Fatalf("mirror chain does not hold the last payload: ok=%v ver=%d", ok, ver)
			}
			ds := lib.DeltaStats()
			if ds.FullFrames != int64(fulls) || ds.FullFrames+ds.DeltaFrames != last {
				t.Fatalf("stats count %d full + %d delta frames, seals say %d full of %d", ds.FullFrames, ds.DeltaFrames, fulls, last)
			}
			if hashed := ds.TotalChunks > 0; hashed != (fullEvery > 1) {
				t.Fatalf("FullEvery %d hashed %d chunks", fullEvery, ds.TotalChunks)
			}
		})
	}
}

// TestMirrorRebaseAndAbandon pins the push-failure protocol: Abandon
// releases the (possibly fabric-referenced) frame buffer, Rebase forces
// the next frame to be a self-contained full base, and the rebased
// frame repairs a mirror that missed the abandoned frames entirely.
func TestMirrorRebaseAndAbandon(t *testing.T) {
	const chunk = 128
	enc := NewMirrorEncoder(chunk, 16)
	m := NewLiveMirror()
	payload := bytes.Repeat([]byte{7}, 4*chunk)

	blob := enc.EncodeNext(0, 1, payload)
	if kind := frameChain(blob).kind; kind != KindFull {
		t.Fatalf("first frame: %v", kind)
	}
	if err := m.Apply(blob); err != nil {
		t.Fatal(err)
	}
	// Two frames are "lost in flight" (never applied); the push failed.
	payload[0] ^= 1
	enc.EncodeNext(0, 2, payload)
	payload[1] ^= 1
	enc.EncodeNext(0, 3, payload)
	enc.Abandon()
	enc.Rebase()
	payload[2] ^= 1
	blob = enc.EncodeNext(0, 4, payload)
	if kind := frameChain(blob).kind; kind != KindFull {
		t.Fatalf("post-rebase frame: %v", kind)
	}
	if err := m.Apply(blob); err != nil {
		t.Fatalf("rebased base must repair the mirror: %v", err)
	}
	got, ver, ok := m.Snapshot()
	if !ok || ver != 4 || !bytes.Equal(got, payload) {
		t.Fatalf("post-rebase snapshot ok=%v ver=%d", ok, ver)
	}
}

// mirrorTrial is one randomized torn-tail shape: a frame chain with
// random chunking, payload growth/shrink and damage — flipped bytes,
// dropped frames, and replayed stale frames (the forked-chain case a
// takeover leaves behind). Safety: whenever the mirror answers ok, the
// payload must be bit-identical to the primary's state at the reported
// version. Liveness: the next intact full base always heals the mirror.
func mirrorTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	chunk := 128 << rng.Intn(3)
	fullEvery := 2 + rng.Intn(5)
	enc := NewMirrorEncoder(chunk, fullEvery)
	m := NewLiveMirror()

	payload := make([]byte, (3+rng.Intn(6))*chunk+rng.Intn(chunk))
	rng.Read(payload)
	golden := map[int64][]byte{}
	var stale []byte // a frame from an abandoned chain branch

	healthy := true // mirror has applied every frame of the live chain so far
	for v := int64(1); v <= int64(6+rng.Intn(12)); v++ {
		switch rng.Intn(5) {
		case 0: // grow
			pad := make([]byte, rng.Intn(2*chunk))
			rng.Read(pad)
			payload = append(payload, pad...)
		case 1: // shrink (never to empty)
			if cut := rng.Intn(len(payload) / 2); cut > 0 {
				payload = payload[:len(payload)-cut]
			}
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			payload[rng.Intn(len(payload))] ^= byte(1 + rng.Intn(255))
		}
		golden[v] = append([]byte(nil), payload...)

		blob := enc.EncodeNext(1, v, payload)
		kind := frameChain(blob).kind
		damage := rng.Intn(4)
		if kind == KindFull && damage != 1 {
			// An intact full base must repair any prior damage.
			if err := m.Apply(blob); err != nil {
				t.Fatalf("seed %d v%d: intact base rejected: %v", seed, v, err)
			}
			healthy = true
		} else {
			switch damage {
			case 0: // intact delta
				err := m.Apply(blob)
				if healthy && err != nil {
					t.Fatalf("seed %d v%d: intact delta on healthy chain rejected: %v", seed, v, err)
				}
				// A gap delta may only be accepted when a stale replay
				// (case 3) healed the chain first; the golden compare
				// below catches any acceptance that corrupts the image.
				healthy = err == nil
			case 1: // flipped byte: CRC must reject, mirror must tear
				bad := append([]byte(nil), blob...)
				bad[rng.Intn(len(bad))] ^= 0xFF
				if err := m.Apply(bad); err == nil {
					t.Fatalf("seed %d v%d: damaged frame accepted", seed, v)
				}
				if !m.Torn() {
					t.Fatalf("seed %d v%d: damaged frame left the mirror untorn", seed, v)
				}
				healthy = false
			case 2: // dropped frame (never applied)
				if stale == nil {
					stale = append([]byte(nil), blob...)
				}
				healthy = false
			case 3: // stale replay first, then the live frame. Replaying
				// the exact missed frame in order is late delivery and
				// legitimately heals the chain; replaying it after other
				// frames landed is a fork and must not corrupt (golden
				// compare below judges either way).
				if stale != nil {
					_ = m.Apply(stale)
					stale = nil
				}
				err := m.Apply(blob)
				if healthy && err != nil && kind == KindFull {
					t.Fatalf("seed %d v%d: intact base rejected: %v", seed, v, err)
				}
				healthy = err == nil
			}
		}
		got, ver, ok := m.Snapshot()
		if ok {
			want, known := golden[ver]
			if !known && ver != 0 {
				t.Fatalf("seed %d: mirror reports unknown version %d", seed, ver)
			}
			if known && !bytes.Equal(got, want) {
				t.Fatalf("seed %d v%d: mirror ok but payload differs from golden v%d", seed, v, ver)
			}
		} else if healthy {
			t.Fatalf("seed %d v%d: healthy chain but snapshot not ok", seed, v)
		}
	}

	// Liveness: an explicit rebase (what the primary does after any push
	// failure) heals the mirror with one frame, whatever came before.
	enc.Rebase()
	blob := enc.EncodeNext(1, 1000, payload)
	if frameChain(blob).kind != KindFull {
		t.Fatalf("seed %d: rebase did not force a full base", seed)
	}
	if err := m.Apply(blob); err != nil {
		t.Fatalf("seed %d: healing base rejected: %v", seed, err)
	}
	got, ver, ok := m.Snapshot()
	if !ok || ver != 1000 || !bytes.Equal(got, payload) {
		t.Fatalf("seed %d: mirror not healed (ok=%v ver=%d)", seed, ok, ver)
	}
	if m.Torn() {
		t.Fatalf("seed %d: healed mirror still torn", seed)
	}
}

// TestMirrorTornTailProperty fuzzes the mirror's torn-tail defenses
// across random chain shapes and damage orders.
func TestMirrorTornTailProperty(t *testing.T) {
	trials := int64(300)
	if testing.Short() {
		trials = 60
	}
	for seed := int64(0); seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { mirrorTrial(t, seed) })
	}
}

// BenchmarkMirrorApply is the CI allocation gate for the shadow's
// mirror path: one EncodeNext + Apply per iteration (~1 dirty chunk,
// the Lanczos steady state) must be allocation-free — the shadow
// shadows EVERY iteration of a healthy run, not just checkpoints.
func BenchmarkMirrorApply(b *testing.B) {
	const chunk = 4 << 10
	enc := NewMirrorEncoder(chunk, 8)
	m := NewLiveMirror()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm both reused buffers (encoder frame + mirror image) before
	// counting: steady state, like the delta staging gate.
	if err := m.Apply(enc.EncodeNext(0, 1, payload)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[(i*4096+i)%len(payload)] ^= 0xA5
		if err := m.Apply(enc.EncodeNext(0, int64(i+2), payload)); err != nil {
			b.Fatal(err)
		}
	}
}

package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Hot-shadow mirror tests: the encoder→apply roundtrip a shadowed
// primary streams every iteration, the torn-tail defenses (damaged
// bytes, dropped frames, stale replays), and the allocation gate on the
// apply loop — the shadow mirrors every iteration of a healthy run, so its
// steady state must be allocation-free like the other hot paths.

// TestMirrorRoundtrip drives a run of frames through a LiveMirror and
// checks the invariant takeover depends on: after every applied frame the
// snapshot is bit-identical to the primary's payload at the version the
// mirror reports.
func TestMirrorRoundtrip(t *testing.T) {
	const chunk = 256
	enc := NewMirrorEncoder()
	m := NewLiveMirror()
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 5*chunk+17)
	rng.Read(payload)

	for v := int64(1); v <= 12; v++ {
		payload[rng.Intn(len(payload))] ^= 0xA5
		blob := enc.EncodeNext(3, v, payload)
		if len(blob) != headerLen+len(payload)+trailerLen {
			t.Fatalf("v%d: %d-byte frame for a %d-byte payload", v, len(blob), len(payload))
		}
		if err := m.Apply(blob); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		got, ver, ok := m.Snapshot()
		if !ok || ver != v || !bytes.Equal(got, payload) {
			t.Fatalf("v%d: snapshot ok=%v ver=%d match=%v", v, ok, ver, bytes.Equal(got, payload))
		}
	}
	if m.Applied() != 12 || m.Torn() {
		t.Fatalf("applied=%d torn=%v", m.Applied(), m.Torn())
	}
}

// TestMirrorAndStoreChainsShareOneEncoder feeds one payload sequence
// (random sizes, random dirty fraction, a worker refresh in the middle)
// through the Library's store path and the mirror path: at every
// generation both write the same frame bytes, whatever the deprecated
// FullEvery says, the store restores and the mirror holds the last payload.
func TestMirrorAndStoreChainsShareOneEncoder(t *testing.T) {
	for _, fullEvery := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("FullEvery=%d", fullEvery), func(t *testing.T) {
			const chunk, last, refreshAt = 512, int64(14), int64(6)
			cl := testCluster(t, 3)
			lib := newLib(cl, 0, Config{FullEvery: fullEvery})
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1, 2})
			enc := NewMirrorEncoder()
			m := NewLiveMirror()

			rng := rand.New(rand.NewSource(int64(40 + fullEvery)))
			payload := make([]byte, 0, 16*chunk)
			for v := int64(1); v <= last; v++ {
				payload = payload[:1+rng.Intn(cap(payload))]
				for i, dirty := 0, rng.Intn(len(payload)/chunk+2); i < dirty; i++ {
					payload[rng.Intn(len(payload))] ^= byte(1 + rng.Intn(255))
				}
				if v == refreshAt {
					lib.SetWorkerNodes([]int{0, 1, 2})
				}
				if err := lib.Write("state", 0, v, payload); err != nil {
					t.Fatal(err)
				}
				seal, ok := cl.Node(0).GetMeta(SealKey(Key("state", 0, v)))
				if sv, sealed := parseSeal(seal); !ok || !sealed || sv != v {
					t.Fatalf("v%d: no local seal after a Sync write", v)
				}
				stored, err := cl.Node(0).Get(Key("state", 0, v), cl.Storage())
				if err != nil {
					t.Fatal(err)
				}
				blob := enc.EncodeNext(0, v, payload)
				if !bytes.Equal(blob, stored) {
					t.Fatalf("v%d: the store and the mirror wrote different frames", v)
				}
				if err := m.Apply(blob); err != nil {
					t.Fatalf("v%d: %v", v, err)
				}
			}
			lib.WaitIdle()
			got, err := lib.Fetch("state", 0, last)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("store does not restore the last payload: err=%v", err)
			}
			img, ver, ok := m.Snapshot()
			if !ok || ver != last || !bytes.Equal(img, payload) {
				t.Fatalf("mirror does not hold the last payload: ok=%v ver=%d", ok, ver)
			}
		})
	}
}

// TestMirrorRebaseAndAbandon pins the push-failure protocol: Abandon
// releases the (possibly fabric-referenced) frame buffer, so the next frame
// is written into fresh memory, and that one frame repairs a mirror that
// missed the abandoned frames entirely.
func TestMirrorRebaseAndAbandon(t *testing.T) {
	const chunk = 128
	enc := NewMirrorEncoder()
	m := NewLiveMirror()
	payload := bytes.Repeat([]byte{7}, 4*chunk)

	if err := m.Apply(enc.EncodeNext(0, 1, payload)); err != nil {
		t.Fatal(err)
	}
	// Two frames are "lost in flight" (never applied); the push failed.
	payload[0] ^= 1
	enc.EncodeNext(0, 2, payload)
	payload[1] ^= 1
	inFlight := enc.EncodeNext(0, 3, payload)
	held := bytes.Clone(inFlight)
	enc.Abandon()
	payload[2] ^= 1
	blob := enc.EncodeNext(0, 4, payload)
	if &blob[0] == &inFlight[0] || !bytes.Equal(inFlight, held) {
		t.Fatal("the frame after Abandon reused the abandoned buffer")
	}
	if err := m.Apply(blob); err != nil {
		t.Fatalf("the next frame must repair the mirror: %v", err)
	}
	got, ver, ok := m.Snapshot()
	if !ok || ver != 4 || !bytes.Equal(got, payload) {
		t.Fatalf("repaired snapshot ok=%v ver=%d", ok, ver)
	}
}

// mirrorTrial is one randomized torn-tail shape: a run of frames with
// payload growth/shrink and damage — flipped bytes, dropped frames, and
// replayed stale frames (what a takeover can leave behind). Safety:
// whenever the mirror answers ok, the payload must be bit-identical to the
// primary's state at the reported version. Liveness: a corrupt frame tears
// the mirror, and the next valid frame heals it.
func mirrorTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	chunk := 128 << rng.Intn(3)
	enc := NewMirrorEncoder()
	m := NewLiveMirror()

	payload := make([]byte, (3+rng.Intn(6))*chunk+rng.Intn(chunk))
	rng.Read(payload)
	golden := map[int64][]byte{}
	var stale []byte // a frame that was dropped, replayed later

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
		switch rng.Intn(4) {
		case 0: // intact: always applies and heals whatever came before
			if err := m.Apply(blob); err != nil {
				t.Fatalf("seed %d v%d: intact frame rejected: %v", seed, v, err)
			}
			if m.Torn() {
				t.Fatalf("seed %d v%d: intact frame left the mirror torn", seed, v)
			}
		case 1: // flipped byte: CRC must reject, mirror must tear
			bad := append([]byte(nil), blob...)
			bad[rng.Intn(len(bad))] ^= 0xFF
			if err := m.Apply(bad); err == nil {
				t.Fatalf("seed %d v%d: damaged frame accepted", seed, v)
			}
			if _, _, ok := m.Snapshot(); ok || !m.Torn() {
				t.Fatalf("seed %d v%d: damaged frame left the mirror valid", seed, v)
			}
		case 2: // dropped frame (never applied)
			if stale == nil {
				stale = append([]byte(nil), blob...)
			}
		case 3: // stale replay first, then the live frame
			if stale != nil {
				if err := m.Apply(stale); err != nil {
					t.Fatalf("seed %d v%d: intact stale frame rejected: %v", seed, v, err)
				}
				stale = nil
			}
			if err := m.Apply(blob); err != nil {
				t.Fatalf("seed %d v%d: intact frame rejected: %v", seed, v, err)
			}
		}
		if got, ver, ok := m.Snapshot(); ok {
			want, known := golden[ver]
			if !known {
				t.Fatalf("seed %d: mirror reports unknown version %d", seed, ver)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d v%d: mirror ok but payload differs from golden v%d", seed, v, ver)
			}
		}
	}

	// Liveness: one intact frame heals the mirror, whatever came before.
	blob := enc.EncodeNext(1, 1000, payload)
	if err := m.Apply(blob); err != nil {
		t.Fatalf("seed %d: healing frame rejected: %v", seed, err)
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
// across random histories and damage orders.
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
// mirror path: one EncodeNext + Apply per iteration must be
// allocation-free — the shadow shadows EVERY iteration of a healthy run,
// not just checkpoints.
func BenchmarkMirrorApply(b *testing.B) {
	enc := NewMirrorEncoder()
	m := NewLiveMirror()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm both reused buffers (encoder frame + mirror image) before
	// counting: steady state, like the frame staging gate.
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

package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Hot-shadow frame tests. A shadowed primary pushes a checkpoint frame
// every iteration, encoded by EncodeFrame into one reused buffer, and the
// shadow keeps the newest frame DecodeFrame accepts (core's keepFrame,
// which core's TestShadowKeepsNewestIntactFrame pins). These pin what the
// codec gives that rule: the round trip, the torn-tail defenses (damaged
// bytes, dropped frames, stale replays) and the buffer a failed push
// abandons. core's BenchmarkMirrorApply gates the pair's allocations.

// shadowKeep is the shadow's keep rule over the codec: the newest frame it
// was handed, as a private copy like the one the stream applier makes,
// while that frame is intact; none after a torn one.
type shadowKeep struct {
	f  Frame
	ok bool
}

func (k *shadowKeep) hand(blob []byte) error {
	f, err := DecodeFrame(bytes.Clone(blob))
	k.f, k.ok = f, err == nil
	return err
}

// TestMirrorRoundtrip drives a run of frames through one reused push
// buffer and the keep rule, and checks the invariant takeover depends on:
// after every intact frame the kept payload is bit-identical to the
// primary's payload at the version kept.
func TestMirrorRoundtrip(t *testing.T) {
	const chunk = 256
	var buf []byte
	var k shadowKeep
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 5*chunk+17)
	rng.Read(payload)

	for v := int64(1); v <= 12; v++ {
		payload[rng.Intn(len(payload))] ^= 0xA5
		prev := buf
		buf = EncodeFrame(buf, 3, v, payload)
		if len(buf) != headerLen+len(payload)+trailerLen {
			t.Fatalf("v%d: %d-byte frame for a %d-byte payload", v, len(buf), len(payload))
		}
		if prev != nil && &prev[0] != &buf[0] {
			t.Fatalf("v%d: the push buffer was not reused", v)
		}
		if err := k.hand(buf); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if !k.ok || k.f.Version != v || k.f.Logical != 3 || !bytes.Equal(k.f.Payload, payload) {
			t.Fatalf("v%d: kept ok=%v ver=%d match=%v", v, k.ok, k.f.Version, bytes.Equal(k.f.Payload, payload))
		}
	}
}

// TestMirrorAndStoreChainsShareOneEncoder feeds one payload sequence
// (random sizes, random dirty fraction, a worker refresh in the middle)
// through the Library's store path and a shadowed primary's push buffer:
// at every generation both write the same frame bytes, whatever the
// deprecated FullEvery says, the store restores and the shadow keeps the
// last payload.
func TestMirrorAndStoreChainsShareOneEncoder(t *testing.T) {
	for _, fullEvery := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("FullEvery=%d", fullEvery), func(t *testing.T) {
			const chunk, last, refreshAt = 512, int64(14), int64(6)
			cl := testCluster(t, 3)
			lib := newLib(cl, 0, Config{FullEvery: fullEvery})
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1, 2})
			var buf []byte
			var k shadowKeep

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
				buf = EncodeFrame(buf, 0, v, payload)
				if !bytes.Equal(buf, stored) {
					t.Fatalf("v%d: the store and the push wrote different frames", v)
				}
				if err := k.hand(buf); err != nil {
					t.Fatalf("v%d: %v", v, err)
				}
			}
			lib.WaitIdle()
			got, err := lib.Fetch("state", 0, last)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("store does not restore the last payload: err=%v", err)
			}
			if !k.ok || k.f.Version != last || !bytes.Equal(k.f.Payload, payload) {
				t.Fatalf("the shadow does not keep the last payload: ok=%v ver=%d", k.ok, k.f.Version)
			}
		})
	}
}

// TestMirrorRebaseAndAbandon pins the push-failure protocol: the primary
// drops its (possibly fabric-referenced) push buffer, so the next frame is
// written into fresh memory, and that one frame is kept by a shadow that
// missed the abandoned frames entirely.
func TestMirrorRebaseAndAbandon(t *testing.T) {
	const chunk = 128
	var k shadowKeep
	payload := bytes.Repeat([]byte{7}, 4*chunk)

	buf := EncodeFrame(nil, 0, 1, payload)
	if err := k.hand(buf); err != nil {
		t.Fatal(err)
	}
	// Two frames are "lost in flight" (never kept); the push failed.
	payload[0] ^= 1
	buf = EncodeFrame(buf, 0, 2, payload)
	payload[1] ^= 1
	inFlight := EncodeFrame(buf, 0, 3, payload)
	held := bytes.Clone(inFlight)
	buf = nil // what pushMirror does with the buffer of a failed push
	payload[2] ^= 1
	buf = EncodeFrame(buf, 0, 4, payload)
	if &buf[0] == &inFlight[0] || !bytes.Equal(inFlight, held) {
		t.Fatal("the frame after a failed push reused the abandoned buffer")
	}
	if err := k.hand(buf); err != nil {
		t.Fatalf("the next frame must be kept: %v", err)
	}
	if !k.ok || k.f.Version != 4 || !bytes.Equal(k.f.Payload, payload) {
		t.Fatalf("kept after the failed push: ok=%v ver=%d", k.ok, k.f.Version)
	}
}

// mirrorTrial is one randomized torn-tail shape: a run of frames with
// payload growth/shrink and damage — flipped bytes, dropped frames, and
// replayed stale frames (what a takeover can leave behind). Safety:
// whenever the shadow keeps a frame, its payload is bit-identical to the
// primary's state at the kept version. Liveness: a corrupt frame leaves
// nothing kept, and the next intact frame is kept again.
func mirrorTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	chunk := 128 << rng.Intn(3)
	var buf []byte
	var k shadowKeep

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

		buf = EncodeFrame(buf, 1, v, payload)
		blob := buf
		switch rng.Intn(4) {
		case 0: // intact: always kept, whatever came before
			if err := k.hand(blob); err != nil {
				t.Fatalf("seed %d v%d: intact frame rejected: %v", seed, v, err)
			}
			if !k.ok {
				t.Fatalf("seed %d v%d: intact frame not kept", seed, v)
			}
		case 1: // flipped byte: CRC must reject, nothing kept
			bad := append([]byte(nil), blob...)
			bad[rng.Intn(len(bad))] ^= 0xFF
			if err := k.hand(bad); err == nil {
				t.Fatalf("seed %d v%d: damaged frame accepted", seed, v)
			}
			if k.ok {
				t.Fatalf("seed %d v%d: damaged frame left a frame kept", seed, v)
			}
		case 2: // dropped frame (never applied)
			if stale == nil {
				stale = append([]byte(nil), blob...)
			}
		case 3: // stale replay first, then the live frame
			if stale != nil {
				if err := k.hand(stale); err != nil {
					t.Fatalf("seed %d v%d: intact stale frame rejected: %v", seed, v, err)
				}
				stale = nil
			}
			if err := k.hand(blob); err != nil {
				t.Fatalf("seed %d v%d: intact frame rejected: %v", seed, v, err)
			}
		}
		if k.ok {
			want, known := golden[k.f.Version]
			if !known {
				t.Fatalf("seed %d: kept frame has unknown version %d", seed, k.f.Version)
			}
			if !bytes.Equal(k.f.Payload, want) {
				t.Fatalf("seed %d v%d: kept payload differs from golden v%d", seed, v, k.f.Version)
			}
		}
	}

	// Liveness: one intact frame is kept, whatever came before.
	if err := k.hand(EncodeFrame(buf, 1, 1000, payload)); err != nil {
		t.Fatalf("seed %d: healing frame rejected: %v", seed, err)
	}
	if !k.ok || k.f.Version != 1000 || !bytes.Equal(k.f.Payload, payload) {
		t.Fatalf("seed %d: healing frame not kept (ok=%v ver=%d)", seed, k.ok, k.f.Version)
	}
}

// TestMirrorTornTailProperty fuzzes the keep rule's torn-tail defenses
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

package core

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
)

// TestShadowKeepsNewestIntactFrame pins the keep rule shadowMain's applier
// runs on every frame its primary pushes: an intact frame is the takeover
// candidate at its version, its payload the applier's copy of the frame
// rather than a second one; a torn frame leaves noCheckpoint; the next
// intact frame is the candidate again, a stale replay included (reload's
// agreement, not the shadow, rejects a version behind the group's).
func TestShadowKeepsNewestIntactFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{3}, 1000)
	v7 := checkpoint.EncodeFrame(nil, 1, 7, payload)
	fo, ok := keepFrame(v7)
	if !ok || fo.version != 7 || !bytes.Equal(fo.payload, payload) {
		t.Fatalf("intact v7: ok=%v version=%d payload intact=%v", ok, fo.version, bytes.Equal(fo.payload, payload))
	}
	v7[len(v7)-5] ^= 0xFF // the payload's last byte
	if fo.payload[len(fo.payload)-1] != v7[len(v7)-5] {
		t.Fatal("the kept payload is a copy of the frame, not the frame itself")
	}

	payload[0] = 4
	torn := checkpoint.EncodeFrame(nil, 1, 8, payload)
	torn[len(torn)/2] ^= 0xFF
	for name, blob := range map[string][]byte{"torn": torn, "empty": nil} {
		if fo, ok := keepFrame(blob); ok || fo.version != noCheckpoint || fo.payload != nil {
			t.Fatalf("%s frame: ok=%v version=%d, %d payload bytes", name, ok, fo.version, len(fo.payload))
		}
	}

	v9 := checkpoint.EncodeFrame(nil, 1, 9, payload)
	stale := checkpoint.EncodeFrame(nil, 1, 6, payload)
	for _, want := range []struct {
		blob    []byte
		version int64
	}{{v9, 9}, {stale, 6}} {
		if fo, ok := keepFrame(want.blob); !ok || fo.version != want.version || !bytes.Equal(fo.payload, payload) {
			t.Fatalf("intact v%d: ok=%v version=%d", want.version, ok, fo.version)
		}
	}
}

// BenchmarkMirrorApply is the CI allocation gate for the per-iteration
// shadow path: a shadowed primary's frame, encoded into its reused push
// buffer, and the shadow's keepFrame on it must allocate nothing — a
// shadowed rank pushes EVERY iteration of a healthy run, not just
// checkpoints. The payload grows by 16 B per op, as the solver's does (α
// and β of one more iteration), so a buffer sized to fit exactly would
// reallocate on every op.
func BenchmarkMirrorApply(b *testing.B) {
	payload := make([]byte, 256<<10, 256<<10+16*b.N)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm the reused buffer before counting: steady state, like the frame
	// staging gate.
	buf := checkpoint.EncodeFrame(nil, 0, 1, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload = payload[:len(payload)+16]
		payload[(i*4096+i)%len(payload)] ^= 0xA5
		buf = checkpoint.EncodeFrame(buf, 0, int64(i+2), payload)
		if fo, ok := keepFrame(buf); !ok || fo.version != int64(i+2) {
			b.Fatalf("frame %d not kept", i+2)
		}
	}
}

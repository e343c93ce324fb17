package checkpoint

import (
	"bytes"
	"testing"
)

// The staging contract core.App.Checkpoint rests on: an App may serialize
// every checkpoint into one buffer it reuses, because each consumer of the
// payload — Write under either commit discipline, and the mirror encoder —
// has copied it by the time it returns. These tests rewrite the buffer the
// moment each call returns, before any flush or push could have read it,
// and check that what was stored or mirrored is what was written.

// stagingFill writes version v's content into the reused buffer.
func stagingFill(buf []byte, v int64) {
	for i := range buf {
		buf[i] = byte(int64(i)*7 + v)
	}
}

// scribble overwrites the whole buffer.
func scribble(buf []byte) {
	for i := range buf {
		buf[i] = 0xFF
	}
}

func TestWriteCopiesPayloadBeforeReturn(t *testing.T) {
	const chunk = 256
	for name, mode := range map[string]CheckpointMode{"Sync": Sync, "Async": Async} {
		t.Run(name, func(t *testing.T) {
			cl := testCluster(t, 2)
			lib := newLib(cl, 0, Config{CheckpointMode: mode})
			defer lib.Stop()
			lib.SetWorkerNodes([]int{0, 1})
			buf := make([]byte, 4*chunk+9)
			want := map[int64][]byte{}
			for v := int64(1); v <= 5; v++ {
				stagingFill(buf, v)
				want[v] = bytes.Clone(buf)
				if err := lib.Write("state", 0, v, buf); err != nil {
					t.Fatal(err)
				}
				scribble(buf)
			}
			lib.WaitIdle()
			if err := lib.Err(); err != nil {
				t.Fatal(err)
			}
			for _, v := range []int64{4, 5} {
				got, err := lib.Fetch("state", 0, v)
				if err != nil || !bytes.Equal(got, want[v]) {
					t.Fatalf("local v%d: err=%v, payload intact=%v", v, err, bytes.Equal(got, want[v]))
				}
			}
			// The neighbor's replica was pushed after the scribble.
			cl.KillNode(0)
			rescue := newLib(cl, 1, Config{CheckpointMode: mode})
			defer rescue.Stop()
			rescue.SetWorkerNodes([]int{1})
			got, src, err := rescue.FetchFrom("state", 0, 5)
			if err != nil || !bytes.Equal(got, want[5]) {
				t.Fatalf("replica v5 from %v: err=%v, payload intact=%v", src, err, bytes.Equal(got, want[5]))
			}
		})
	}
}

// TestMirrorEncodeCopiesPayloadBeforeReturn: a shadowed primary's push
// frame holds the payload as it was when EncodeFrame returned, however the
// App's reused buffer is scribbled over afterwards.
func TestMirrorEncodeCopiesPayloadBeforeReturn(t *testing.T) {
	const chunk = 256
	var frame []byte
	var k shadowKeep
	buf := make([]byte, 4*chunk+9)
	for v := int64(1); v <= 5; v++ {
		stagingFill(buf, v)
		want := bytes.Clone(buf)
		frame = EncodeFrame(frame, 0, v, buf)
		scribble(buf)
		if err := k.hand(frame); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if !k.ok || k.f.Version != v || !bytes.Equal(k.f.Payload, want) {
			t.Fatalf("v%d: kept ok=%v ver=%d, payload intact=%v", v, k.ok, k.f.Version, bytes.Equal(k.f.Payload, want))
		}
	}
}

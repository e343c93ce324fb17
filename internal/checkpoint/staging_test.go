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

func TestMirrorEncodeCopiesPayloadBeforeReturn(t *testing.T) {
	const chunk = 256
	enc := NewMirrorEncoder()
	m := NewLiveMirror()
	buf := make([]byte, 4*chunk+9)
	for v := int64(1); v <= 5; v++ {
		stagingFill(buf, v)
		want := bytes.Clone(buf)
		blob := enc.EncodeNext(0, v, buf)
		scribble(buf)
		if err := m.Apply(blob); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		got, ver, ok := m.Snapshot()
		if !ok || ver != v || !bytes.Equal(got, want) {
			t.Fatalf("v%d: mirror ok=%v ver=%d, image intact=%v", v, ok, ver, bytes.Equal(got, want))
		}
	}
}

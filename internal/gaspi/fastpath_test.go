package gaspi

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/fabric"
)

func fastTestCfg(n int) Config {
	return Config{
		Procs:   n,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
		Seed:    7,
	}
}

func runJob(t *testing.T, cfg Config, main func(p *Proc) error) *Job {
	t.Helper()
	job := Launch(cfg, main)
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	return job
}

// TestFastPathTornWriteOrdering is the torn-write / notification-ordering
// regression test for the zero-copy path: the writer repeatedly fills its
// registered buffer with a new stamp and posts it with WriteNotifyFrom;
// when the reader observes notification value v, EVERY byte of the region
// must already carry v's stamp — the write must never be torn and the
// notification must never run ahead of its data. The reader acknowledges
// each frame (notification slot 1) before the writer reuses the region,
// the flow control any real GASPI consumer of a mutable region performs.
func TestFastPathTornWriteOrdering(t *testing.T) {
	const (
		seg   = SegmentID(1)
		size  = 4096
		iters = 300
	)
	runJob(t, fastTestCfg(2), func(p *Proc) error {
		if err := p.SegmentCreate(seg, size); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			src := make([]byte, size)
			for it := 1; it <= iters; it++ {
				stamp := byte(it % 251)
				for i := range src {
					src[i] = stamp
				}
				if err := p.WriteNotifyFrom(1, seg, 0, src, 0, int64(it), 0); err != nil {
					return err
				}
				// The buffer is owned by the fabric until the flush:
				// only after WaitQueue may the loop overwrite it.
				if err := p.WaitQueue(0, Block); err != nil {
					return err
				}
				// Await the reader's consumption ack before writing the
				// next frame over the same remote region.
				if _, err := p.NotifyWaitsome(seg, 1, 1, Block); err != nil {
					return err
				}
				if _, err := p.NotifyReset(seg, 1); err != nil {
					return err
				}
			}
			return p.Barrier(GroupAll, Block)
		}
		data, err := p.SegmentData(seg)
		if err != nil {
			return err
		}
		for it := 1; it <= iters; it++ {
			if _, err := p.NotifyWaitsome(seg, 0, 1, Block); err != nil {
				return err
			}
			v, err := p.NotifyReset(seg, 0)
			if err != nil {
				return err
			}
			if v != int64(it) {
				return fmt.Errorf("notification %d, want %d", v, it)
			}
			want := byte(it % 251)
			for i := 0; i < size; i++ {
				if data[i] != want {
					return fmt.Errorf("torn write at frame %d: byte %d is %d, want %d",
						it, i, data[i], want)
				}
			}
			if err := p.Notify(0, seg, 1, int64(it), 0); err != nil {
				return err
			}
			if err := p.WaitQueue(0, Block); err != nil {
				return err
			}
		}
		return p.Barrier(GroupAll, Block)
	})
}

// TestFastPathDeliversViaSink asserts the registered-memory fast path is
// actually taken: the target's NIC, run at delivery, applies each
// one-sided write and acknowledges it.
func TestFastPathDeliversViaSink(t *testing.T) {
	const seg = SegmentID(1)
	job := runJob(t, fastTestCfg(2), func(p *Proc) error {
		if err := p.SegmentCreate(seg, 64); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := make([]byte, 64)
			for i := 0; i < 10; i++ {
				if err := p.WriteNotifyFrom(1, seg, 0, buf, 0, int64(i+1), 0); err != nil {
					return err
				}
			}
			if err := p.WaitQueue(0, Block); err != nil {
				return err
			}
		}
		return p.Barrier(GroupAll, Block)
	})
	if acks := job.Transport().Stats().PerKind[kWriteAck]; acks < 10 {
		t.Fatalf("%d write acks, want >= 10 (one per one-sided write)", acks)
	}
}

// TestWriteFromBufferReuseAfterFlush exercises the ownership contract
// under the race detector: reusing the borrowed buffer after a successful
// flush is safe; the delivery-time read and the post-flush write must be
// ordered by the completion.
func TestWriteFromBufferReuseAfterFlush(t *testing.T) {
	const seg = SegmentID(1)
	runJob(t, fastTestCfg(2), func(p *Proc) error {
		if err := p.SegmentCreate(seg, 8); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := make([]byte, 8)
			for i := 0; i < 200; i++ {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				if err := p.WriteFrom(1, seg, 0, buf, 0); err != nil {
					return err
				}
				if err := p.WaitQueue(0, Block); err != nil {
					return err
				}
			}
		}
		return p.Barrier(GroupAll, Block)
	})
}

// TestSegmentFloat64sView checks the typed view aliases the segment
// memory: its values are the segment's bytes in host byte order.
func TestSegmentFloat64sView(t *testing.T) {
	const seg = SegmentID(1)
	runJob(t, fastTestCfg(1), func(p *Proc) error {
		if err := p.SegmentCreate(seg, 24); err != nil {
			return err
		}
		view, err := p.SegmentFloat64s(seg)
		if err != nil {
			return err
		}
		if len(view) != 3 {
			return fmt.Errorf("view length %d, want 3", len(view))
		}
		view[1] = 42.5
		raw, err := p.SegmentCopyOut(seg, 8, 8)
		if err != nil {
			return err
		}
		if got := math.Float64frombits(binary.NativeEndian.Uint64(raw)); got != 42.5 {
			return fmt.Errorf("byte view sees %v, want 42.5", got)
		}
		if err := p.SegmentCopyIn(seg, 16, binary.NativeEndian.AppendUint64(nil, math.Float64bits(-1.25))); err != nil {
			return err
		}
		if view[2] != -1.25 {
			return fmt.Errorf("typed view sees %v, want -1.25", view[2])
		}
		return nil
	})
}

package ft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gaspi"
)

// Every neighbor replica and every frame a shadowed primary pushes to its
// hot shadow travels over a GASPI one-sided stream: the sender posts the
// frame in chunks with gaspi_write on a queue dedicated to checkpoint
// traffic (so bulk checkpoint data never delays the halo exchange or the
// notice-board writes), then commits with a notification. The receiver
// runs a small applier goroutine that hands a private copy of each
// complete frame to its store — the node-local store for a replica (the
// node-level copy that survives the sender's death); on a hot shadow, the
// shadow's keep rule, which holds on to the newest intact frame.
//
// The staging segment has one writer slot per process of a node: all the
// ranks of a node replicate to the same receiver on the neighbor node, so
// each writes its frames into the slot of its own position on its node and
// commits them with that slot's notification.
const (
	// SegCP is the checkpoint-stream staging segment (board=1, halo=2).
	SegCP gaspi.SegmentID = 3
	// CPQueue is the queue dedicated to checkpoint chunk writes.
	CPQueue gaspi.QueueID = 7
	// CPAckQueue carries the receiver's acknowledgments, kept off CPQueue
	// so the applier never waits behind the flusher's bulk writes.
	CPAckQueue gaspi.QueueID = 6
	// NotifCPAck signals frame consumption back to the sender.
	NotifCPAck gaspi.NotificationID = 0
	// NotifCPCommit+i signals a complete frame in writer slot i of the
	// receiver's segment.
	NotifCPCommit gaspi.NotificationID = 1
)

// DefaultCPStreamBytes is the default capacity of a writer slot, and the
// one the framework runs with: one frame (key + encoded checkpoint) must
// fit in 1 MiB, or neighbor replication of that checkpoint fails (visible
// via the checkpoint library's Err and ErrCount).
const DefaultCPStreamBytes = 1 << 20

// cpFrameHeader is [4B sender rank][4B key length][4B blob length].
const cpFrameHeader = 12

// CPStreamStats counts checkpoint-stream traffic; Pushed* totals are
// sender-side (successful pushes), Served* receiver-side.
type CPStreamStats struct {
	PushedFull  int64
	PushedFullB int64
	ServedFull  int64
	// PushedDeltaB always reads 0.
	//
	// Deprecated: the stream no longer types frames; every byte pushed is
	// counted in PushedFullB.
	PushedDeltaB int64
}

// ErrCPFrameTooLarge reports a checkpoint frame exceeding the staging
// segment; the flusher records it and recovery falls back to an older
// sealed version.
var ErrCPFrameTooLarge = errors.New("ft: checkpoint frame exceeds stream segment")

// errCPDied reports a push cut short because the local process died.
var errCPDied = errors.New("ft: checkpoint stream: process died")

// CPStream is one process's endpoint of the checkpoint replication
// stream: Push sends sealed frames to a neighbor's segment, Serve applies
// frames arriving from the upstream neighbor's processes. Pushes are
// serialized, so a sender has one frame in flight; Serve runs in its own
// goroutine. Both survive recovery — queues are purged by Recover, which
// simply fails the in-flight push, and the per-frame sequence keeps stale
// acknowledgments harmless.
type CPStream struct {
	p       *gaspi.Proc
	segSize int // frame capacity of one writer slot
	stride  int // bytes per writer slot: header + segSize
	slot    int // this process's writer slot in a receiver's segment
	slots   int // writer slots in this process's segment
	chunk   int
	timeout time.Duration

	mu  sync.Mutex // serializes Push: one frame in flight per sender
	seq int64

	// hdrBuf is the reused header+key staging buffer. Like the blob it is
	// posted zero-copy, so it is owned by the fabric until the chunk flush
	// completes; error paths abandon it (nil) instead of reusing it.
	hdrBuf []byte

	stopped atomic.Bool
	serving atomic.Bool
	served  chan struct{} // closed when Serve returns

	statsMu sync.Mutex
	stats   CPStreamStats
}

// Stats returns the traffic counters.
func (s *CPStream) Stats() CPStreamStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// NewCPStream creates the staging segment and returns the endpoint. node
// lists the ranks hosted on this process's node, in order: the segment gets
// one writer slot per entry, and this process writes into the slot of its
// own position. segBytes is a slot's frame capacity (DefaultCPStreamBytes
// when 0), chunk the write granularity (64 KiB when 0), timeout the
// per-wait poll interval — the worker's communication timeout is the
// natural choice. The segment is backed as it is written, so slots no
// sender reaches cost nothing.
func NewCPStream(p *gaspi.Proc, node []gaspi.Rank, segBytes, chunk int, timeout time.Duration) (*CPStream, error) {
	slot := slices.Index(node, p.Rank())
	if slot < 0 {
		return nil, fmt.Errorf("ft: checkpoint stream: rank %d is not among its node's ranks %v", p.Rank(), node)
	}
	if segBytes <= 0 {
		segBytes = DefaultCPStreamBytes
	}
	if chunk <= 0 {
		chunk = 64 << 10
	}
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	stride := cpFrameHeader + segBytes
	if err := p.SegmentCreate(SegCP, len(node)*stride); err != nil {
		return nil, err
	}
	return &CPStream{
		p:       p,
		segSize: segBytes,
		stride:  stride,
		slot:    slot,
		slots:   len(node),
		chunk:   chunk,
		timeout: timeout,
		served:  make(chan struct{}),
	}, nil
}

// Push replicates one frame to the receiver rank: chunked zero-copy
// one-sided writes on CPQueue into this sender's writer slot (each chunk is
// read once, from the caller's buffer straight into the receiver's segment
// at delivery time — the flusher no longer pays a per-chunk copy), the
// slot's commit notification carrying the frame sequence, then a wait for
// the receiver's acknowledgment (the flow control GASPI itself does not
// provide — without it the next push could overwrite an unconsumed frame).
// Safe to call from a goroutine of a process that may die mid-push: the
// killedPanic is absorbed and surfaces as an error.
//
// Ownership: blob is borrowed by the fabric until Push returns nil. If
// Push returns an error (timeout, purge, death), in-flight writes may
// still reference blob — the caller must abandon the buffer to the
// garbage collector rather than reuse it (the async checkpoint writer
// does exactly that).
func (s *CPStream) Push(to gaspi.Rank, key string, blob []byte) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if died := gaspi.Protect(func() { err = s.push(to, key, blob) }); died {
		err = errCPDied
	}
	if err != nil {
		// The header buffer may still ride an undelivered message;
		// reusing it next Push would race the delivery-time read.
		s.hdrBuf = nil
		return err
	}
	s.statsMu.Lock()
	s.stats.PushedFull++
	s.stats.PushedFullB += int64(len(blob))
	s.statsMu.Unlock()
	return nil
}

func (s *CPStream) push(to gaspi.Rank, key string, blob []byte) error {
	if len(key)+len(blob) > s.segSize {
		return fmt.Errorf("%w: %d bytes > %d", ErrCPFrameTooLarge, len(key)+len(blob), s.segSize)
	}
	// Header+key go as one small write; the blob is chunked directly from
	// the caller's (reused) buffer — no full-frame copy per epoch, and
	// with the zero-copy posts no per-chunk copy either.
	hdr := s.header(key, len(blob))
	slotOff := int64(s.slot * s.stride)
	if err := s.p.WriteFrom(to, SegCP, slotOff, hdr, CPQueue); err != nil {
		return err
	}
	// All chunks target one receiver rank, i.e. one fabric shard: the
	// burst coalesces into a single doorbell wakeup there, and the shard
	// batches the whole run of chunk writes through its timer heap.
	base := slotOff + int64(len(hdr))
	for off := 0; off < len(blob); off += s.chunk {
		end := min(off+s.chunk, len(blob))
		if err := s.p.WriteFrom(to, SegCP, base+int64(off), blob[off:end], CPQueue); err != nil {
			return err
		}
	}
	if err := s.waitQueue(CPQueue); err != nil {
		return fmt.Errorf("ft: checkpoint chunk flush to rank %d: %w", to, err)
	}
	s.seq++
	if err := s.p.Notify(to, SegCP, NotifCPCommit+gaspi.NotificationID(s.slot), s.seq, CPQueue); err != nil {
		return err
	}
	if err := s.waitQueue(CPQueue); err != nil {
		return fmt.Errorf("ft: checkpoint commit to rank %d: %w", to, err)
	}
	// Await the consumption acknowledgment; stale acks (an earlier push
	// aborted after its commit landed) are drained by sequence.
	deadline := time.Now().Add(10 * s.timeout)
	for {
		_, err := s.p.NotifyWaitsome(SegCP, NotifCPAck, 1, s.timeout)
		if err != nil && !errors.Is(err, gaspi.ErrTimeout) {
			return err
		}
		if err == nil {
			ack, rerr := s.p.NotifyReset(SegCP, NotifCPAck)
			if rerr != nil {
				return rerr
			}
			if ack == s.seq {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: no checkpoint ack from rank %d", gaspi.ErrTimeout, to)
		}
	}
}

// header encodes a frame's header and key into the reused staging buffer.
func (s *CPStream) header(key string, blobLen int) []byte {
	need := cpFrameHeader + len(key)
	if cap(s.hdrBuf) < need {
		s.hdrBuf = make([]byte, need)
	}
	hdr := s.hdrBuf[:need]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(s.p.Rank()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(blobLen))
	copy(hdr[cpFrameHeader:], key)
	return hdr
}

// waitQueue flushes a queue with the poll timeout, resuming timed-out
// waits up to a bounded deadline (matching the library's timeout-based
// blocking discipline).
func (s *CPStream) waitQueue(q gaspi.QueueID) error {
	deadline := time.Now().Add(10 * s.timeout)
	for {
		err := s.p.WaitQueue(q, s.timeout)
		if !errors.Is(err, gaspi.ErrTimeout) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
	}
}

// Serve is the applier loop: it waits for the commit notification of any
// writer slot, copies the staged frame out of that slot, hands it to store
// (which commits data plus seal to the node-local store, or applies a
// mirror frame), and acknowledges to the frame's sender. It returns after
// Stop or when the process dies; run it in its own goroutine. The poll
// timeout is only how often an idle applier re-checks; Stop does not wait
// for it (it raises the attention line, which ends the wait).
func (s *CPStream) Serve(store func(key string, blob []byte) error) {
	s.serving.Store(true)
	defer close(s.served)
	gaspi.Protect(func() {
		for !s.stopped.Load() {
			id, err := s.p.NotifyWaitsome(SegCP, NotifCPCommit, s.slots, s.timeout)
			if errors.Is(err, gaspi.ErrTimeout) {
				continue
			}
			if err != nil {
				return
			}
			seq, err := s.p.NotifyReset(SegCP, id)
			if err != nil {
				return
			}
			if seq == 0 {
				continue
			}
			if !s.serveOne(int(id-NotifCPCommit), seq, store) {
				return
			}
		}
	})
}

// serveOne consumes the frame committed under seq out of writer slot slot:
// validate, hand to store, acknowledge. It returns false only on a
// segment-level error (the process is going away); a mangled or corrupt
// frame is dropped without an acknowledgment so the sender times out
// rather than trusting a bad replica.
func (s *CPStream) serveOne(slot int, seq int64, store func(key string, blob []byte) error) bool {
	off := slot * s.stride
	hdr, err := s.p.SegmentCopyOut(SegCP, off, cpFrameHeader)
	if err != nil {
		return false
	}
	sender := gaspi.Rank(int32(binary.LittleEndian.Uint32(hdr[0:])))
	keyLen := int(binary.LittleEndian.Uint32(hdr[4:]))
	blobLen := int(binary.LittleEndian.Uint32(hdr[8:]))
	if keyLen <= 0 || blobLen < 0 || keyLen+blobLen > s.segSize {
		return true // mangled frame (e.g. two transient senders): drop, no ack
	}
	body, err := s.p.SegmentCopyOut(SegCP, off+cpFrameHeader, keyLen+blobLen)
	if err != nil {
		return false
	}
	key := string(body[:keyLen])
	blob := body[keyLen:] // SegmentCopyOut already returned a private copy
	if store(key, blob) != nil {
		return true // corrupt frame: drop without ack, sender times out
	}
	s.statsMu.Lock()
	s.stats.ServedFull++
	s.statsMu.Unlock()
	if err := s.p.Notify(sender, SegCP, NotifCPAck, seq, CPAckQueue); err != nil {
		return true
	}
	_ = s.p.WaitQueue(CPAckQueue, s.timeout) // best effort
	return true
}

// DrainPending consumes the frames that were committed into the segment
// but not yet picked up by Serve — the shadow's takeover path calls it
// after Stop: the primary's final push may have landed (commit notification
// set) in the window between Serve's last poll and its exit, and that tail
// frame is exactly the iteration the failover must not lose. Non-blocking:
// when no commit is pending it returns immediately.
func (s *CPStream) DrainPending(store func(key string, blob []byte) error) {
	gaspi.Protect(func() {
		for slot := range s.slots {
			id := NotifCPCommit + gaspi.NotificationID(slot)
			if v, err := s.p.NotifyPeek(SegCP, id); err != nil || v == 0 {
				continue
			}
			if seq, err := s.p.NotifyReset(SegCP, id); err == nil && seq != 0 {
				s.serveOne(slot, seq, store)
			}
		}
	})
}

// Stop makes Serve return and waits for it to exit (a no-op when Serve was
// never started). It does not wait out Serve's poll: the attention line,
// armed and raised for the duration, ends the applier's wait at once. Call
// it from the process's main goroutine, outside any blocking ft call — the
// line is the process's, and Stop leaves it lowered and disarmed.
func (s *CPStream) Stop() {
	s.stopped.Store(true)
	if !s.serving.Load() {
		return
	}
	s.p.AttentionArm(true)
	s.p.AttentionRaise()
	<-s.served
	s.p.AttentionClear()
	s.p.AttentionArm(false)
}

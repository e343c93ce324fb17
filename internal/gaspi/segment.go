package gaspi

import (
	"fmt"
	"sync"
	"unsafe"
)

// segment is a PGAS memory segment: a byte buffer plus its notification
// slots. Remote writes are applied by the NIC under mu; application code
// that synchronizes through notifications may read the data without holding
// mu (the notification access provides the happens-before edge, as in real
// RDMA followed by a notification check).
//
// A segment is backed on first touch. Its declared size bounds every access,
// but buf holds only the prefix that has been written: a write past it
// extends it under mu (back), and the bytes beyond it read as zeros. A view
// (SegmentData, SegmentFloat64s) backs the whole segment first, after which
// buf never moves again — so application code may keep the view.
type segment struct {
	id SegmentID
	mu sync.Mutex
	// size is the declared size, fixed at creation.
	size int
	buf  []byte

	notifMu    sync.Mutex
	notifVals  []int64
	notifPulse pulse
	// attn is the owning process's attention line when attnSlot of this
	// segment is watched (AttentionWatch), nil otherwise. Guarded by notifMu.
	attn     *attention
	attnSlot NotificationID
}

// SegmentCreate reserves a local segment of the given size
// (gaspi_segment_create). The segment becomes remotely accessible
// immediately; IDs must be allocated consistently across ranks by the
// application. Memory is allocated as the segment is written, not here: a
// segment costs what its writes reach, or its size once a view is taken.
func (p *Proc) SegmentCreate(id SegmentID, size int) error {
	p.checkAlive()
	if id < 0 {
		return fmt.Errorf("%w: segment ids < 0 are reserved for the runtime", ErrInvalid)
	}
	if size < 0 {
		return fmt.Errorf("%w: negative segment size", ErrInvalid)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.segs[id]; ok {
		return fmt.Errorf("%w: segment %d already exists", ErrInvalid, id)
	}
	// Runtime-internal segments (negative ids — the per-group collective
	// segments) do not consume the application's budget.
	user := 0
	for sid := range p.segs {
		if sid >= 0 {
			user++
		}
	}
	if user >= maxSegments {
		return fmt.Errorf("%w: segment limit %d reached", ErrInvalid, maxSegments)
	}
	p.segs[id] = &segment{
		id:        id,
		size:      size,
		notifVals: make([]int64, p.cfg.NotifySlots),
	}
	return nil
}

// SegmentDelete frees a local segment (gaspi_segment_delete). Reserved
// runtime segments (negative ids) are not deletable through the public
// API; they live and die with their group.
func (p *Proc) SegmentDelete(id SegmentID) error {
	p.checkAlive()
	if id < 0 {
		return fmt.Errorf("%w: segment ids < 0 are reserved for the runtime", ErrInvalid)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.segs[id]; !ok {
		return fmt.Errorf("%w: unknown segment %d", ErrInvalid, id)
	}
	delete(p.segs, id)
	return nil
}

// SegmentSize returns the size of a local segment.
func (p *Proc) SegmentSize(id SegmentID) (int, error) {
	p.checkAlive()
	s, err := p.segLookup(id)
	if err != nil {
		return 0, err
	}
	return s.declared(), nil
}

// SegmentData returns the raw local segment memory (gaspi_segment_ptr).
// Like the pointer returned by the C API, concurrent remote writes into a
// region being read are only safe when the application synchronizes through
// notifications; use SegmentCopyOut/SegmentCopyIn for lock-protected access.
// The whole segment is backed on return, and the slice stays the segment's
// memory for its lifetime.
func (p *Proc) SegmentData(id SegmentID) ([]byte, error) {
	p.checkAlive()
	s, err := p.segLookup(id)
	if err != nil {
		return nil, err
	}
	return s.backAll(), nil
}

// SegmentFloat64s returns the local segment memory as a []float64 view
// sharing the segment's storage (no copy) — the typed window onto
// registered memory a real GASPI application gets from gaspi_segment_ptr.
// The view covers the longest 8-byte-aligned prefix of the segment. The
// same synchronization rules as SegmentData apply: reads of remotely
// written regions are safe only after observing the covering notification.
// The view is in host byte order: all ranks share one address space, and
// every writer and reader of a float64 segment uses this same native view
// (the fabric copies the bytes verbatim), so the layout is endian-clean on
// any host — the argument collView makes for the collective segments.
func (p *Proc) SegmentFloat64s(id SegmentID) ([]float64, error) {
	p.checkAlive()
	s, err := p.segLookup(id)
	if err != nil {
		return nil, err
	}
	if s.declared() < 8 {
		return nil, fmt.Errorf("%w: segment %d too small for a float64 view", ErrInvalid, id)
	}
	buf := s.backAll()
	return unsafe.Slice((*float64)(unsafe.Pointer(&buf[0])), len(buf)/8), nil
}

// SegmentCopyIn copies data into the local segment at off under the segment
// lock, safe against concurrent NIC writes.
func (p *Proc) SegmentCopyIn(id SegmentID, off int, data []byte) error {
	p.checkAlive()
	s, err := p.segLookup(id)
	if err != nil {
		return err
	}
	if s.applyRemoteWrite(int64(off), data) != remOK {
		return fmt.Errorf("%w: copy-in [%d,%d) beyond segment %d size %d", ErrInvalid, off, off+len(data), id, s.declared())
	}
	return nil
}

// SegmentCopyOut copies size bytes out of the local segment at off under the
// segment lock, safe against concurrent NIC writes.
func (p *Proc) SegmentCopyOut(id SegmentID, off, size int) ([]byte, error) {
	p.checkAlive()
	s, err := p.segLookup(id)
	if err != nil {
		return nil, err
	}
	out, code := s.readRemote(int64(off), int64(size))
	if code != remOK {
		return nil, fmt.Errorf("%w: copy-out [%d,%d) beyond segment %d size %d", ErrInvalid, off, off+size, id, s.declared())
	}
	return out, nil
}

func (p *Proc) segLookup(id SegmentID) (*segment, error) {
	p.mu.Lock()
	s, ok := p.segs[id]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: unknown segment %d", ErrInvalid, id)
	}
	return s, nil
}

// declared returns the segment's declared size.
func (s *segment) declared() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// back extends the backed prefix to at least end bytes (end ≤ size). The
// copy into the longer buffer happens under mu, which every delivery-time
// write holds, so a write lands either in the old buffer before the copy or
// in the new one after it. A frame written chunk by chunk reallocates once
// per chunk, the first time only: frames repeat their size.
func (s *segment) back(end int64) {
	if end <= int64(len(s.buf)) {
		return
	}
	buf := make([]byte, end)
	copy(buf, s.buf)
	s.buf = buf
}

// backAll backs the whole segment and returns its memory, which no later
// write moves.
func (s *segment) backAll() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.back(int64(s.size))
	return s.buf
}

// applyRemoteWrite is executed by the NIC for an incoming kWrite (and by
// SegmentCopyIn), backing what it writes.
func (s *segment) applyRemoteWrite(off int64, data []byte) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + int64(len(data))
	if off < 0 || end > int64(s.size) {
		return remOutOfBounds
	}
	s.back(end)
	copy(s.buf[off:], data)
	return remOK
}

// readRemote copies a range out for SegmentCopyOut. Bytes past the backed
// prefix read as zeros.
func (s *segment) readRemote(off, size int64) ([]byte, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || size < 0 || off+size > int64(s.size) {
		return nil, remOutOfBounds
	}
	out := make([]byte, size)
	if off < int64(len(s.buf)) {
		copy(out, s.buf[off:])
	}
	return out, remOK
}

// scanNotif returns the first non-zero notification slot in
// [begin, begin+num), if any. Bounds are the caller's responsibility.
func (s *segment) scanNotif(begin NotificationID, num int) (NotificationID, bool) {
	s.notifMu.Lock()
	for i := begin; i < begin+NotificationID(num); i++ {
		if s.notifVals[i] != 0 {
			s.notifMu.Unlock()
			return i, true
		}
	}
	s.notifMu.Unlock()
	return 0, false
}

// setNotification is executed by the NIC when a notification arrives. A
// notification landing in the watched slot also raises the attention line —
// after notifMu is released, since raising broadcasts.
//
//ftlint:hotpath
func (s *segment) setNotification(id int64, val int64) int64 {
	s.notifMu.Lock()
	if id < 0 || id >= int64(len(s.notifVals)) {
		s.notifMu.Unlock()
		return remOutOfBounds
	}
	s.notifVals[id] = val
	attn := s.attn
	if NotificationID(id) != s.attnSlot {
		attn = nil
	}
	s.notifMu.Unlock()
	s.notifPulse.Broadcast()
	if attn != nil {
		attn.raise()
	}
	return remOK
}

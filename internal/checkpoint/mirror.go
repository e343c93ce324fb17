package checkpoint

import "sync"

// Hot-shadow mirroring. A shadowed primary encodes its state every
// iteration as a frame (the same self-contained frame the store writes)
// and pushes it over the checkpoint stream to its shadow, which applies it
// into live, plan-shaped memory — not into the store. On takeover the
// shadow's mirror IS the restore image: no fetch, no recompute. The frame
// CRC gives the torn-tail detection the store path gets from seals: a
// damaged frame marks the mirror torn, and the shadow falls back to the
// global restore ladder instead of resuming on corrupt state. A lost frame
// leaves the mirror one version behind, which the takeover's version
// agreement detects; the next intact frame heals either.

// MirrorEncoder encodes the per-iteration frames a primary streams to its
// hot shadow into one reused frame buffer that a failed push can abandon.
// Not safe for concurrent use: it belongs to the primary's iteration loop.
type MirrorEncoder struct {
	buf []byte
}

// NewMirrorEncoder returns an encoder with an empty frame buffer.
func NewMirrorEncoder() *MirrorEncoder { return &MirrorEncoder{} }

// Abandon releases the frame buffer to the GC. Called after a failed push:
// the fabric may still reference the last EncodeNext's frame, so reusing
// its backing array could corrupt an in-flight send.
func (e *MirrorEncoder) Abandon() { e.buf = nil }

// EncodeNext encodes payload as the next mirror frame into the encoder's
// reused buffer. The returned slice is borrowed: it is overwritten by the
// next EncodeNext.
//
//ftlint:hotpath
func (e *MirrorEncoder) EncodeNext(logical int, version int64, payload []byte) []byte {
	blob := encodeFrame(e.buf, logical, version, payload)
	e.buf = blob[:0]
	return blob
}

// LiveMirror is the shadow side: it applies a primary's mirror frames into
// a live payload image and answers, at takeover time, "what is the
// primary's state and through which version is it valid?". Apply runs on
// the checkpoint-stream serve goroutine while Snapshot/Torn are read from
// the standby's control loop, so the mirror carries its own lock.
type LiveMirror struct {
	mu      sync.Mutex
	image   []byte // the last applied payload
	version int64
	valid   bool
	torn    bool
	applied int64
}

// NewLiveMirror returns an empty (invalid) mirror.
func NewLiveMirror() *LiveMirror { return &LiveMirror{} }

// Apply validates one mirror frame and copies its payload into the live
// image. A frame that fails its check marks the mirror torn and invalid
// and surfaces the decoder's ErrCorrupt; the next intact frame repairs it.
//
//ftlint:hotpath
func (m *LiveMirror) Apply(blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := decodeFrame(blob)
	if err != nil {
		m.valid = false
		m.torn = true
		return err
	}
	if cap(m.image) < len(f.payload) {
		m.image = make([]byte, len(f.payload)) //ftlint:ignore hotpath: amortized growth, image reused across frames
	}
	m.image = m.image[:len(f.payload)]
	copy(m.image, f.payload)
	m.version = f.version
	m.valid = true
	m.torn = false
	m.applied++
	return nil
}

// Snapshot returns the live image and the version it reflects. The payload
// is borrowed — valid until the next Apply — so callers restoring from it
// must do so before releasing the stream. ok is false when the mirror
// never applied a frame or is torn.
func (m *LiveMirror) Snapshot() (payload []byte, version int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid {
		return nil, 0, false
	}
	return m.image, m.version, true
}

// Applied returns the number of successfully applied frames.
func (m *LiveMirror) Applied() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

// Torn reports whether the last frame was rejected (a fallback signal;
// cleared by the next intact frame).
func (m *LiveMirror) Torn() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.torn
}

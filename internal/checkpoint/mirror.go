package checkpoint

import (
	"fmt"
	"sync"
)

// Hot-shadow mirroring. A shadowed primary encodes its state every
// iteration as a chain of generation-tagged full/delta frames (the same
// GCP4/GCP3 frames from the same chain encoder as the store) and pushes them
// over the checkpoint stream to its shadow, which applies them into live,
// plan-shaped memory — not into the store. On takeover the shadow's
// mirror IS the restore image: no fetch, no chain resolution, no
// recompute. The chain tags and per-frame CRCs give the same torn-tail
// detection the store path gets from seals: a skipped generation (lost
// frame), a forked chain (frames from before a takeover) or damaged bytes
// mark the mirror torn, and the shadow falls back to the global restore
// ladder instead of resuming on corrupt state.

// MirrorEncoder encodes the per-iteration frame chain a primary streams to
// its hot shadow: the same chain encoder the Library keeps per checkpoint
// family (its own chain — different cadence counter, different consumer),
// writing into one reused frame buffer that a failed push can abandon. Not
// safe for concurrent use: it belongs to the primary's iteration loop.
type MirrorEncoder struct {
	chain chainEncoder
	buf   []byte
}

// NewMirrorEncoder returns an encoder chunking payloads at chunkBytes and
// emitting a self-contained full base at least every fullEvery frames (<= 1:
// every frame full; sooner whenever a delta would be no smaller).
func NewMirrorEncoder(chunkBytes, fullEvery int) *MirrorEncoder {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &MirrorEncoder{chain: chainEncoder{chunk: chunkBytes, fullEvery: fullEvery}}
}

// Rebase forces the next frame to be a full base. Called after a takeover
// or a push failure: the shadow's chain position is unknown, and a delta
// chained onto an unreceived generation would only be detected (and
// dropped) as torn.
func (e *MirrorEncoder) Rebase() { e.chain.rebase() }

// Abandon releases the frame buffer to the GC. Called after a failed push:
// the fabric may still reference the last EncodeNext's frame, so reusing
// its backing array could corrupt an in-flight send.
func (e *MirrorEncoder) Abandon() { e.buf = nil }

// EncodeNext encodes payload as the next frame of the mirror chain into the
// encoder's reused buffer. The returned slice is borrowed: it is
// overwritten by the next EncodeNext.
//
//ftlint:hotpath
func (e *MirrorEncoder) EncodeNext(logical int, version int64, payload []byte) []byte {
	blob, _, _, _ := e.chain.encodeNext(e.buf, logical, version, payload)
	e.buf = blob[:0]
	return blob
}

// ErrMirrorTorn marks a mirror whose chain broke: a delta arrived whose
// predecessor tag does not match the last applied generation (skipped or
// forked chain), or a frame failed its CRC. The mirror stays torn until
// the next full base.
var ErrMirrorTorn = fmt.Errorf("checkpoint: mirror chain torn")

// LiveMirror is the shadow side: it applies a primary's mirror frames into
// a live payload image and answers, at takeover time, "what is the
// primary's state and through which version is it valid?". Apply runs on
// the checkpoint-stream serve goroutine while Snapshot/Torn are read from
// the standby's control loop, so the mirror carries its own lock.
type LiveMirror struct {
	mu      sync.Mutex
	scratch frame  // reused decode target (alloc-free steady state)
	base    []byte // reassembled payload image
	version int64
	gen     uint64
	valid   bool
	torn    bool
	applied int64
}

// NewLiveMirror returns an empty (invalid) mirror.
func NewLiveMirror() *LiveMirror { return &LiveMirror{} }

// Apply validates one mirror frame (CRC + chain tags) and folds it into
// the live image. A full base always repairs the mirror; a delta must
// chain exactly onto the last applied generation, otherwise the mirror is
// marked torn (ErrMirrorTorn) and stays invalid until the next full base.
// Corrupt bytes surface the decoder's ErrCorrupt.
//
//ftlint:hotpath
func (m *LiveMirror) Apply(blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := decodeFrameInto(&m.scratch, blob); err != nil {
		m.valid = false
		m.torn = true
		return err
	}
	f := &m.scratch
	switch f.chain.kind {
	case KindFull:
		m.base = grow(m.base, len(f.payload)) //ftlint:ignore hotpath: inlined grow; amortized growth, image reused across frames
		copy(m.base, f.payload)
		m.gen = f.chain.gen
	case KindDelta:
		if !m.valid || f.chain.prevGen != m.gen {
			m.valid = false
			m.torn = true
			return fmt.Errorf("%w: delta v%d chains onto gen %d, have gen %d", //ftlint:ignore hotpath: torn path only
				ErrMirrorTorn, f.version, f.chain.prevGen, m.gen)
		}
		out, err := applyDelta(m.base, f)
		if err != nil {
			m.valid = false
			m.torn = true
			return err
		}
		m.base = out
		m.gen = f.chain.gen
	}
	m.version = f.version
	m.valid = true
	m.torn = false
	m.applied++
	return nil
}

// Snapshot returns the live image and the version it reflects. The payload
// is borrowed — valid until the next Apply — so callers restoring from it
// must do so before releasing the stream. ok is false when the mirror
// never completed a base or is torn.
func (m *LiveMirror) Snapshot() (payload []byte, version int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid {
		return nil, 0, false
	}
	return m.base, m.version, true
}

// Applied returns the number of successfully applied frames.
func (m *LiveMirror) Applied() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

// Torn reports whether the chain is currently broken (a fallback signal;
// cleared by the next full base).
func (m *LiveMirror) Torn() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.torn
}

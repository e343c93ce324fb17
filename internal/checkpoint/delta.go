package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// The frame chain. Every generation of a checkpoint family — a stored
// checkpoint or a hot shadow's mirror frame — is one of two frames: a
// self-contained full base (GCP4) or a delta (GCP3) carrying only the
// chunks that changed since the previous generation. Iterative
// applications mutate only part of their state between epochs (a Lanczos
// step touches the two rotating vectors, not the whole basis), so with
// Config.FullEvery > 1 the chain encoder chunks each payload at the
// replication granularity (Config.ChunkSize), keeps the chunk hashes of the
// last generation, and writes only the dirty chunks, chained onto that
// generation. Chain depth follows the data: a generation whose delta frame
// would be no smaller than its base frame (every chunk dirty, or nearly) is
// written as a base and restarts the cadence, so FullEvery is the maximum
// depth of a chain, not its depth — a state that dirties every chunk every
// epoch restores from one frame. With FullEvery <= 1 every generation is a
// full base and nothing is hashed.
//
// Chain identity. Restoring a delta requires the exact payload it was
// diffed against. Version numbers alone cannot guarantee that: after a
// recovery the application re-executes iterations, overwriting a version
// with a different (post-regroup floating-point trajectory) payload, and a
// surviving pre-failure delta chained onto the overwritten version would
// reassemble garbage. Every generation therefore carries a process-unique
// generation tag; a delta records the tag of its predecessor, and both
// tags are replicated in the frame and echoed into the seal. The restore
// side only links a delta to a replica whose seal carries the matching
// tag, so a forked chain is detected as broken (and an older intact chain
// is selected) instead of being silently mis-assembled. As a second line
// of defense each delta carries a CRC of the complete reassembled payload.

// FrameKind classifies an encoded checkpoint frame.
type FrameKind byte

// Frame kinds. The values are the seal's kind byte; 0 is no frame.
const (
	// KindFull is a generation-tagged full base frame (GCP4).
	KindFull FrameKind = iota + 1
	// KindDelta is a dirty-chunk delta frame (GCP3) chained onto the
	// previous generation.
	KindDelta
)

func (k FrameKind) String() string {
	if k == KindDelta {
		return "delta"
	}
	return "full"
}

// chainInfo is the chain identity of a frame: its own generation tag and,
// for deltas, the tag and version of the generation it applies on top of.
type chainInfo struct {
	kind    FrameKind
	gen     uint64
	prevGen uint64
	prevVer int64
}

// genCounter issues process-unique generation tags. The whole simulated
// cluster lives in one OS process, so a single atomic counter makes tags
// unique across every rank and every library instance; 0 is never issued
// (an encoder whose last tag is 0 has no generation to diff against).
var genCounter atomic.Uint64

func nextGen() uint64 { return genCounter.Add(1) }

// crcFull is the CRC polynomial used for the end-to-end reassembly check
// (Castagnoli: hardware-accelerated on amd64/arm64).
var crcFull = crc32.MakeTable(crc32.Castagnoli)

// chunkHash is the dirty-chunk detector: a 64-bit multiply-mix hash
// processing 8 bytes per step (the per-epoch hashing of the whole payload
// is on the checkpoint visible-cost path, so a byte-wise FNV would eat the
// delta savings). Not cryptographic, but 64 bits of well-mixed state make
// an accidental clean/dirty misclassification practically impossible.
//
//ftlint:hotpath
func chunkHash(b []byte) uint64 {
	const m1 = 0x9E3779B185EBCA87
	const m2 = 0xC2B2AE3D27D4EB4F
	h := uint64(len(b))*m1 + m2
	for len(b) >= 8 {
		h = (h ^ hashMix(binary.LittleEndian.Uint64(b)*m2)) * m1
		b = b[8:]
	}
	var tail uint64
	for i := len(b) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(b[i])
	}
	h = (h ^ hashMix(tail*m2+m1)) * m1
	return hashMix(h)
}

func hashMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x
}

// chainKey identifies one checkpoint family's chain.
type chainKey struct {
	name    string
	logical int
}

// DeltaStats describes what the store-bound chains have written (totals
// since New). FullBytes/DeltaBytes are encoded frame sizes — the bytes that
// hit the local store and the replication transports. TotalChunks counts
// hashed chunks and DirtyChunks those the hash pass found changed, whatever
// frame was then written (so their ratio reads the data, not the cadence);
// both stay 0 with FullEvery <= 1. Promoted counts the generations the
// cadence would have written as deltas and the encoder wrote as bases
// because the delta was no smaller (they are in FullFrames too); Released
// counts the generations the retention rule freed from the local store.
type DeltaStats struct {
	FullFrames  int64
	DeltaFrames int64
	FullBytes   int64
	DeltaBytes  int64
	DirtyChunks int64
	TotalChunks int64
	Promoted    int64
	Released    int64
}

// DeltaStats returns the chain encoders' counters.
func (l *Library) DeltaStats() DeltaStats {
	l.deltaMu.Lock()
	defer l.deltaMu.Unlock()
	return l.dstats
}

// rebaseChains forces the next write of each family to be a full base.
// Called by SetWorkerNodes: after a recovery the surviving replicas of
// recent generations may be gone with the failed node, and re-basing bounds
// the window during which new deltas would chain onto unreachable
// predecessors.
func (l *Library) rebaseChains() {
	l.deltaMu.Lock()
	for _, e := range l.chains {
		e.rebase()
	}
	l.deltaMu.Unlock()
}

// encodeNext encodes the next generation of (name, logical) into dst's
// backing array through the family's chain encoder. Generations follow
// staging order (the async writer stages strictly in Write order).
//
//ftlint:hotpath
func (l *Library) encodeNext(dst []byte, name string, logical int, version int64, payload []byte) []byte {
	l.deltaMu.Lock()
	defer l.deltaMu.Unlock()
	k := chainKey{name: name, logical: logical}
	e := l.chains[k]
	if e == nil {
		e = &chainEncoder{chunk: l.cfg.ChunkSize(), fullEvery: l.cfg.FullEvery} //ftlint:ignore hotpath: one-time per checkpoint family
		l.chains[k] = e
	}
	blob, hashed, dirty, promoted := e.encodeNext(dst, logical, version, payload)
	if IsDeltaFrame(blob) {
		l.dstats.DeltaFrames++
		l.dstats.DeltaBytes += int64(len(blob))
	} else {
		l.dstats.FullFrames++
		l.dstats.FullBytes += int64(len(blob))
	}
	l.dstats.TotalChunks += int64(hashed)
	l.dstats.DirtyChunks += int64(dirty)
	if promoted {
		l.dstats.Promoted++
	}
	return blob
}

// chainEncoder is the one encoder of a frame chain: the full-vs-delta
// cadence, the chunk-hash table of the last generation (what the next
// delta is diffed against) and the chain head. The Library keeps one per
// (name, logical); a MirrorEncoder wraps one. Not safe for concurrent use.
type chainEncoder struct {
	chunk     int
	fullEvery int

	hashes    []uint64 // chunk hashes of the last generation
	scratch   []uint64 // next generation's hashes (swapped, not reallocated)
	lastVer   int64
	lastGen   uint64
	sinceFull int
}

// rebase makes the next generation a full base.
func (e *chainEncoder) rebase() {
	e.lastGen = 0
	e.sinceFull = 0
}

// encodeNext encodes payload as the chain's next generation into dst's
// backing array: a full base when the chain has no head, when the FullEvery
// cadence says so, or when the delta frame would be no smaller than the base
// (promoted: depth follows the data) — each restarts the cadence — else a
// delta of the chunks whose hash moved. It also returns how many chunks it
// hashed and how many of them had changed since the last generation,
// whichever frame was written. With fullEvery <= 1 nothing is ever diffed
// against a generation, so the hash pass is skipped and a frame costs
// copy + CRC.
//
//ftlint:hotpath
func (e *chainEncoder) encodeNext(dst []byte, logical int, version int64, payload []byte) (blob []byte, hashed, dirty int, promoted bool) {
	var cur []uint64
	deltaLen := 0
	if e.fullEvery > 1 {
		n := (len(payload) + e.chunk - 1) / e.chunk
		if cap(e.scratch) < n {
			e.scratch = make([]uint64, n) //ftlint:ignore hotpath: amortized growth, swapped across generations
		}
		cur = e.scratch[:n]
		for i := 0; i < n; i++ {
			end := min((i+1)*e.chunk, len(payload))
			cur[i] = chunkHash(payload[i*e.chunk : end])
		}
		deltaLen, dirty = deltaFrameLen(len(payload), e.chunk, e.hashes, cur)
	}
	gen := nextGen()
	cadenceFull := e.lastGen == 0 || e.sinceFull+1 >= e.fullEvery
	if cadenceFull || deltaLen >= headerLen+fullBodyHeader+len(payload) {
		blob = encodeFullInto(dst, logical, version, gen, payload)
		e.sinceFull = 0
		promoted = !cadenceFull
	} else {
		blob = encodeDeltaInto(dst, logical, version, chainInfo{
			kind: KindDelta, gen: gen, prevGen: e.lastGen, prevVer: e.lastVer,
		}, payload, e.chunk, e.hashes, cur)
		e.sinceFull++
	}
	e.hashes, e.scratch = cur, e.hashes
	e.lastVer = version
	e.lastGen = gen
	return blob, len(cur), dirty, promoted
}

// --- wire formats -----------------------------------------------------

const (
	// headerLen is the shared frame header:
	// [4B magic][4B logical][8B version][8B body length][4B CRC].
	headerLen = 4 + 4 + 8 + 8 + 4
	// magicFull tags a generation-carrying full base frame ("GCP4").
	magicFull = uint32(0x34504347)
	// magicDelta tags a dirty-chunk delta frame ("GCP3").
	magicDelta = uint32(0x33504347)
	// fullBodyHeader is the [8B gen] prefix of a GCP4 body.
	fullBodyHeader = 8
	// deltaBodyHeader is the fixed prefix of a GCP3 body:
	// [8B gen][8B prevGen][8B prevVer][8B fullLen][4B fullCRC]
	// [4B chunkSize][4B nDirty].
	deltaBodyHeader = 8 + 8 + 8 + 8 + 4 + 4 + 4
	// deltaChunkHeader prefixes each dirty chunk: [4B index][4B length].
	deltaChunkHeader = 8
)

// stampFrame writes the shared 28-byte header (magic, identity, body
// length) into blob and stamps the CRC over header+body.
//
//ftlint:hotpath
func stampFrame(blob []byte, m uint32, logical int, version int64) {
	binary.LittleEndian.PutUint32(blob[0:], m)
	binary.LittleEndian.PutUint32(blob[4:], uint32(logical))
	binary.LittleEndian.PutUint64(blob[8:], uint64(version))
	binary.LittleEndian.PutUint64(blob[16:], uint64(len(blob)-headerLen))
	crc := crc32.ChecksumIEEE(blob[:24])
	crc = crc32.Update(crc, crc32.IEEETable, blob[headerLen:])
	binary.LittleEndian.PutUint32(blob[24:], crc)
}

// grow returns dst resized to need, reusing its backing array when large
// enough (the async writer's buffers must be reusable across epochs).
//
//ftlint:hotpath
func grow(dst []byte, need int) []byte {
	if cap(dst) >= need {
		return dst[:need]
	}
	return make([]byte, need) //ftlint:ignore hotpath: amortized growth, backing array reused across epochs
}

// encodeFullInto frames a generation-tagged full base (GCP4).
//
//ftlint:hotpath
func encodeFullInto(dst []byte, logical int, version int64, gen uint64, payload []byte) []byte {
	blob := grow(dst, headerLen+fullBodyHeader+len(payload)) //ftlint:ignore hotpath: inlined grow; amortized growth
	binary.LittleEndian.PutUint64(blob[headerLen:], gen)
	copy(blob[headerLen+fullBodyHeader:], payload)
	stampFrame(blob, magicFull, logical, version)
	return blob
}

// deltaFrameLen sizes the delta frame of a payload of n bytes whose chunk
// hashes moved from prev to cur — one chunk header per dirty chunk plus its
// bytes — and counts the dirty chunks.
//
//ftlint:hotpath
func deltaFrameLen(n, chunk int, prev, cur []uint64) (need, dirty int) {
	need = headerLen + deltaBodyHeader
	for i := range cur {
		if i < len(prev) && prev[i] == cur[i] {
			continue
		}
		need += deltaChunkHeader + (min((i+1)*chunk, n) - i*chunk)
		dirty++
	}
	return need, dirty
}

// encodeDeltaInto frames the dirty chunks of payload (those whose hash
// differs from prev, plus any chunk beyond prev's table) as a delta
// generation (GCP3).
//
//ftlint:hotpath
func encodeDeltaInto(dst []byte, logical int, version int64, ci chainInfo, payload []byte, chunk int, prev, cur []uint64) []byte {
	need, dirty := deltaFrameLen(len(payload), chunk, prev, cur)
	blob := grow(dst, need) //ftlint:ignore hotpath: inlined grow; amortized growth
	b := blob[headerLen:]
	binary.LittleEndian.PutUint64(b[0:], ci.gen)
	binary.LittleEndian.PutUint64(b[8:], ci.prevGen)
	binary.LittleEndian.PutUint64(b[16:], uint64(ci.prevVer))
	binary.LittleEndian.PutUint64(b[24:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(payload, crcFull))
	binary.LittleEndian.PutUint32(b[36:], uint32(chunk))
	binary.LittleEndian.PutUint32(b[40:], uint32(dirty))
	off := deltaBodyHeader
	for i := range cur {
		if i < len(prev) && prev[i] == cur[i] {
			continue
		}
		end := min((i+1)*chunk, len(payload))
		binary.LittleEndian.PutUint32(b[off:], uint32(i))
		binary.LittleEndian.PutUint32(b[off+4:], uint32(end-i*chunk))
		copy(b[off+deltaChunkHeader:], payload[i*chunk:end])
		off += deltaChunkHeader + (end - i*chunk)
	}
	stampFrame(blob, magicDelta, logical, version)
	return blob
}

// frame is a decoded checkpoint frame. For a full base payload is the
// application payload; for a delta the dirty chunks reference the frame
// blob (no copy).
type frame struct {
	chain   chainInfo
	logical int
	version int64
	payload []byte // KindFull

	// Delta fields.
	fullLen   int
	fullCRC   uint32
	chunkSize int
	dirty     []deltaChunk
}

type deltaChunk struct {
	idx  int
	data []byte
}

// decodeFrame validates a checkpoint frame (CRC over header and body) and
// returns its decoded form.
func decodeFrame(blob []byte) (*frame, error) {
	f := &frame{}
	if err := decodeFrameInto(f, blob); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeFrameInto validates a checkpoint frame into a caller-owned frame,
// reusing f.dirty's backing array across calls. The live-mirror apply loop
// decodes one frame per iteration, so the allocating decodeFrame would put
// a make on the shadow's steady-state path.
//
//ftlint:hotpath
func decodeFrameInto(f *frame, blob []byte) error {
	*f = frame{dirty: f.dirty[:0]}
	if len(blob) < headerLen {
		return fmt.Errorf("%w: truncated header", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	m := binary.LittleEndian.Uint32(blob[0:])
	if m != magicFull && m != magicDelta {
		return fmt.Errorf("%w: bad magic", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	logical := int(int32(binary.LittleEndian.Uint32(blob[4:])))
	version := int64(binary.LittleEndian.Uint64(blob[8:]))
	n := binary.LittleEndian.Uint64(blob[16:])
	if uint64(len(blob)-headerLen) != n {
		return fmt.Errorf("%w: truncated body", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	body := blob[headerLen:]
	crc := crc32.ChecksumIEEE(blob[:24])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != binary.LittleEndian.Uint32(blob[24:]) {
		return fmt.Errorf("%w: CRC mismatch", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	f.logical = logical
	f.version = version
	if m == magicFull {
		if len(body) < fullBodyHeader {
			return fmt.Errorf("%w: truncated full body", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
		}
		f.chain = chainInfo{kind: KindFull, gen: binary.LittleEndian.Uint64(body[0:])}
		f.payload = body[fullBodyHeader:]
		return nil
	}
	if len(body) < deltaBodyHeader {
		return fmt.Errorf("%w: truncated delta body", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	f.chain = chainInfo{
		kind:    KindDelta,
		gen:     binary.LittleEndian.Uint64(body[0:]),
		prevGen: binary.LittleEndian.Uint64(body[8:]),
		prevVer: int64(binary.LittleEndian.Uint64(body[16:])),
	}
	f.fullLen = int(binary.LittleEndian.Uint64(body[24:]))
	f.fullCRC = binary.LittleEndian.Uint32(body[32:])
	f.chunkSize = int(binary.LittleEndian.Uint32(body[36:]))
	nDirty := int(binary.LittleEndian.Uint32(body[40:]))
	if f.chunkSize <= 0 || nDirty < 0 || f.fullLen < 0 {
		return fmt.Errorf("%w: bad delta geometry", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	off := deltaBodyHeader
	for i := 0; i < nDirty; i++ {
		if off+deltaChunkHeader > len(body) {
			return fmt.Errorf("%w: truncated delta chunk table", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
		}
		idx := int(binary.LittleEndian.Uint32(body[off:]))
		cl := int(binary.LittleEndian.Uint32(body[off+4:]))
		off += deltaChunkHeader
		if cl < 0 || off+cl > len(body) ||
			idx < 0 || idx*f.chunkSize >= f.fullLen || idx*f.chunkSize+cl > f.fullLen {
			return fmt.Errorf("%w: delta chunk out of range", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
		}
		f.dirty = append(f.dirty, deltaChunk{idx: idx, data: body[off : off+cl]}) //ftlint:ignore hotpath: amortized growth, backing array reused across frames
		off += cl
	}
	if off != len(body) {
		return fmt.Errorf("%w: trailing delta bytes", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	return nil
}

// frameChain reads a frame's chain identity without the full CRC pass
// (used on the seal-write path, where the frame was just encoded or
// already verified). Anything else yields the zero chainInfo, whose seal
// parseSeal rejects.
func frameChain(blob []byte) chainInfo {
	if len(blob) < headerLen {
		return chainInfo{}
	}
	switch binary.LittleEndian.Uint32(blob[0:]) {
	case magicFull:
		if len(blob) >= headerLen+fullBodyHeader {
			return chainInfo{kind: KindFull, gen: binary.LittleEndian.Uint64(blob[headerLen:])}
		}
	case magicDelta:
		if len(blob) >= headerLen+deltaBodyHeader {
			b := blob[headerLen:]
			return chainInfo{
				kind:    KindDelta,
				gen:     binary.LittleEndian.Uint64(b[0:]),
				prevGen: binary.LittleEndian.Uint64(b[8:]),
				prevVer: int64(binary.LittleEndian.Uint64(b[16:])),
			}
		}
	}
	return chainInfo{}
}

// IsDeltaFrame reports whether an encoded checkpoint blob is a delta
// generation (the framework uses it to type checkpoint-stream pushes
// without this package having to know about the stream).
func IsDeltaFrame(blob []byte) bool {
	return len(blob) >= 4 && binary.LittleEndian.Uint32(blob) == magicDelta
}

// applyDelta applies a delta frame's dirty chunks onto the predecessor's
// payload and verifies the end-to-end CRC of the result. base is consumed
// (resized/overwritten); the returned slice may share its backing array.
func applyDelta(base []byte, f *frame) ([]byte, error) {
	out := base
	if cap(out) >= f.fullLen {
		grown := out[:f.fullLen]
		for i := len(out); i < f.fullLen; i++ {
			grown[i] = 0
		}
		out = grown
	} else {
		grown := make([]byte, f.fullLen)
		copy(grown, out)
		out = grown
	}
	for _, c := range f.dirty {
		copy(out[c.idx*f.chunkSize:], c.data)
	}
	if crc32.Checksum(out, crcFull) != f.fullCRC {
		return nil, fmt.Errorf("%w: delta v%d reassembly CRC mismatch", ErrCorrupt, f.version)
	}
	return out, nil
}

// --- seals --------------------------------------------------------------------

// sealMagic marks a seal object ("2COK").
const sealMagic = uint32(0x4b4f4332)

// sealLen is the seal length:
// [4B magic][1B kind][3B pad][8B version][8B gen][8B prevGen][8B prevVer].
const sealLen = 40

// sealFor builds the seal object for an encoded frame: its version and
// chain identity. The restore side resolves base+delta chains from seal
// metadata alone, without fetching frame bodies.
func sealFor(blob []byte, version int64) []byte {
	ci := frameChain(blob)
	s := make([]byte, sealLen)
	binary.LittleEndian.PutUint32(s[0:], sealMagic)
	s[4] = byte(ci.kind)
	binary.LittleEndian.PutUint64(s[8:], uint64(version))
	binary.LittleEndian.PutUint64(s[16:], ci.gen)
	binary.LittleEndian.PutUint64(s[24:], ci.prevGen)
	binary.LittleEndian.PutUint64(s[32:], uint64(ci.prevVer))
	return s
}

// parseSeal decodes a seal object; ok is false for anything that is not a
// seal of a full or delta frame.
func parseSeal(blob []byte) (version int64, ci chainInfo, ok bool) {
	if len(blob) != sealLen || binary.LittleEndian.Uint32(blob) != sealMagic {
		return 0, chainInfo{}, false
	}
	ci = chainInfo{
		kind:    FrameKind(blob[4]),
		gen:     binary.LittleEndian.Uint64(blob[16:]),
		prevGen: binary.LittleEndian.Uint64(blob[24:]),
		prevVer: int64(binary.LittleEndian.Uint64(blob[32:])),
	}
	if ci.kind != KindFull && ci.kind != KindDelta {
		return 0, chainInfo{}, false
	}
	return int64(binary.LittleEndian.Uint64(blob[8:])), ci, true
}

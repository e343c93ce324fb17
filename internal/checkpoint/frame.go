package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The frame. Every generation of a checkpoint family — a stored checkpoint
// or a hot shadow's mirror frame — is one self-contained frame: a header
// naming the generation, the whole payload, and a CRC over both. The two
// applications in the tree rewrite their whole state every step, so a
// generation is never written as a difference from an older one: any
// intact frame restores alone, and a mirror that missed or rejected a frame
// heals on the very next one.

const (
	// headerLen is the frame header:
	// [4B magic][4B logical][8B version][8B payload length].
	headerLen = 4 + 4 + 8 + 8
	// trailerLen is the CRC trailer over header and payload.
	trailerLen = 4
	// magicFrame tags a checkpoint frame ("GCP5").
	magicFrame = uint32(0x35504347)
)

// encodeFrame frames payload as generation (logical, version) into dst's
// backing array, reusing it when large enough (the writer's buffer halves
// and the mirror encoder's buffer are reused across generations).
//
//ftlint:hotpath
func encodeFrame(dst []byte, logical int, version int64, payload []byte) []byte {
	need := headerLen + len(payload) + trailerLen
	blob := dst[:0]
	if cap(dst) < need {
		blob = make([]byte, 0, need) //ftlint:ignore hotpath: amortized growth, backing array reused across generations
	}
	blob = blob[:need]
	binary.LittleEndian.PutUint32(blob[0:], magicFrame)
	binary.LittleEndian.PutUint32(blob[4:], uint32(logical))
	binary.LittleEndian.PutUint64(blob[8:], uint64(version))
	binary.LittleEndian.PutUint64(blob[16:], uint64(len(payload)))
	copy(blob[headerLen:], payload)
	body := blob[:need-trailerLen]
	binary.LittleEndian.PutUint32(blob[need-trailerLen:], crc32.ChecksumIEEE(body))
	return blob
}

// frame is a decoded checkpoint frame; payload aliases the frame blob.
type frame struct {
	logical int
	version int64
	payload []byte
}

// decodeFrame validates a checkpoint frame (magic, length, CRC over header
// and payload) and returns its decoded form without copying the payload.
//
//ftlint:hotpath
func decodeFrame(blob []byte) (frame, error) {
	if len(blob) < headerLen+trailerLen {
		return frame{}, fmt.Errorf("%w: truncated frame", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	if binary.LittleEndian.Uint32(blob[0:]) != magicFrame {
		return frame{}, fmt.Errorf("%w: bad magic", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	n := binary.LittleEndian.Uint64(blob[16:])
	if uint64(len(blob)-headerLen-trailerLen) != n {
		return frame{}, fmt.Errorf("%w: truncated payload", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	body := blob[:len(blob)-trailerLen]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[len(body):]) {
		return frame{}, fmt.Errorf("%w: CRC mismatch", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	return frame{
		logical: int(int32(binary.LittleEndian.Uint32(blob[4:]))),
		version: int64(binary.LittleEndian.Uint64(blob[8:])),
		payload: body[headerLen:],
	}, nil
}

// --- seals --------------------------------------------------------------------

// sealMagic marks a seal object ("2COK").
const sealMagic = uint32(0x4b4f4332)

// sealLen is the seal length: [4B magic][4B pad][8B version].
const sealLen = 16

// sealFor builds the seal object committed after a frame's data: it echoes
// the version, so a seal copied onto another key is not taken for its own.
func sealFor(version int64) []byte {
	s := make([]byte, sealLen)
	binary.LittleEndian.PutUint32(s[0:], sealMagic)
	binary.LittleEndian.PutUint64(s[8:], uint64(version))
	return s
}

// parseSeal decodes a seal object; ok is false for anything that is not one.
func parseSeal(blob []byte) (version int64, ok bool) {
	if len(blob) != sealLen || binary.LittleEndian.Uint32(blob) != sealMagic {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(blob[8:])), true
}

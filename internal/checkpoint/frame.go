package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The frame. Every generation of a checkpoint family — a stored checkpoint
// or a hot shadow's per-iteration push — is one self-contained frame: a
// header naming the generation, the whole payload, and a CRC over both. The
// two applications in the tree rewrite their whole state every step, so a
// generation is never written as a difference from an older one: any
// intact frame restores alone, and a shadow that missed or rejected a frame
// holds a current one again on the very next.

const (
	// headerLen is the frame header:
	// [4B magic][4B logical][8B version][8B payload length].
	headerLen = 4 + 4 + 8 + 8
	// trailerLen is the CRC trailer over header and payload.
	trailerLen = 4
	// magicFrame tags a checkpoint frame ("GCP5").
	magicFrame = uint32(0x35504347)
)

// EncodeFrame frames payload as generation (logical, version) into dst's
// backing array, reusing it when large enough (the writer's buffer halves
// and a shadowed primary's push buffer are reused across generations). The
// payload is copied: the caller may overwrite it as soon as EncodeFrame
// returns.
//
//ftlint:hotpath
func EncodeFrame(dst []byte, logical int, version int64, payload []byte) []byte {
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

// Frame is a decoded checkpoint frame; Payload aliases the frame blob.
type Frame struct {
	Logical int
	Version int64
	Payload []byte
}

// DecodeFrame validates a checkpoint frame (magic, length, CRC over header
// and payload) and returns its decoded form without copying the payload.
// A damaged frame is ErrCorrupt.
//
//ftlint:hotpath
func DecodeFrame(blob []byte) (Frame, error) {
	if len(blob) < headerLen+trailerLen {
		return Frame{}, fmt.Errorf("%w: truncated frame", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	if binary.LittleEndian.Uint32(blob[0:]) != magicFrame {
		return Frame{}, fmt.Errorf("%w: bad magic", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	n := binary.LittleEndian.Uint64(blob[16:])
	if uint64(len(blob)-headerLen-trailerLen) != n {
		return Frame{}, fmt.Errorf("%w: truncated payload", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	body := blob[:len(blob)-trailerLen]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[len(body):]) {
		return Frame{}, fmt.Errorf("%w: CRC mismatch", ErrCorrupt) //ftlint:ignore hotpath: corruption path only
	}
	return Frame{
		Logical: int(int32(binary.LittleEndian.Uint32(blob[4:]))),
		Version: int64(binary.LittleEndian.Uint64(blob[8:])),
		Payload: body[headerLen:],
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

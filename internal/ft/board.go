package ft

import (
	"encoding/binary"
	"fmt"
)

// Notice is the failure-acknowledgment record the FD writes into every
// healthy process's notice-board segment. It carries the full current
// state (not a delta), so a process that missed an epoch still recovers a
// consistent view.
type Notice struct {
	// Epoch counts recoveries; the first failure produces epoch 1.
	Epoch uint64
	// Status is the per-physical-rank status array.
	Status []ProcStatus
	// ActPhys maps logical worker ranks to their current physical ranks
	// (rescues have taken over failed identities).
	ActPhys []Rank
	// NewlyFailed lists the physical ranks detected failed in this epoch;
	// every healthy process proc_kills them (Listing 2).
	NewlyFailed []Rank
	// WorkerFailed reports whether a WORKING process failed — only then is
	// group reconstruction and data recovery needed (a dead spare just
	// shrinks the pool).
	WorkerFailed bool
	// Unrecoverable reports that more workers failed than spares remain
	// (the paper's restriction 1).
	Unrecoverable bool
}

// BoardSize returns the notice-board segment size for a layout.
func BoardSize(l Layout) int {
	// epoch(8) + flags(2) + counts(4+4+4) + status(n) + actPhys(4w) +
	// newlyFailed(4n)
	return 22 + l.Procs + 4*l.Workers() + 4*l.Procs
}

// Encode serializes the notice for the one-sided board write.
func (n *Notice) Encode() []byte {
	b := make([]byte, 0, 64+len(n.Status)+4*len(n.ActPhys)+4*len(n.NewlyFailed))
	b = binary.LittleEndian.AppendUint64(b, n.Epoch)
	var flags [2]byte
	if n.WorkerFailed {
		flags[0] = 1
	}
	if n.Unrecoverable {
		flags[1] = 1
	}
	b = append(b, flags[0], flags[1])
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Status)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.ActPhys)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.NewlyFailed)))
	for _, s := range n.Status {
		b = append(b, byte(s))
	}
	for _, r := range n.ActPhys {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	for _, r := range n.NewlyFailed {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	return b
}

// DecodeNotice parses a notice-board image.
func DecodeNotice(b []byte) (*Notice, error) {
	if len(b) < 22 {
		return nil, fmt.Errorf("ft: notice too short (%d bytes)", len(b))
	}
	n := &Notice{
		Epoch:         binary.LittleEndian.Uint64(b),
		WorkerFailed:  b[8] == 1,
		Unrecoverable: b[9] == 1,
	}
	ns := int(binary.LittleEndian.Uint32(b[10:]))
	na := int(binary.LittleEndian.Uint32(b[14:]))
	nf := int(binary.LittleEndian.Uint32(b[18:]))
	need := 22 + ns + 4*na + 4*nf
	if ns < 0 || na < 0 || nf < 0 || len(b) < need {
		return nil, fmt.Errorf("ft: notice truncated: have %d bytes, need %d", len(b), need)
	}
	off := 22
	n.Status = make([]ProcStatus, ns)
	for i := range n.Status {
		n.Status[i] = ProcStatus(b[off])
		off++
	}
	n.ActPhys = make([]Rank, na)
	for i := range n.ActPhys {
		n.ActPhys[i] = Rank(int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	n.NewlyFailed = make([]Rank, nf)
	for i := range n.NewlyFailed {
		n.NewlyFailed[i] = Rank(int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	return n, nil
}

// DetectorRank returns the rank running the fault detector in this notice
// (a promoted standby after the original FD died), or NilRank once the FD
// has joined the workers.
func (n *Notice) DetectorRank() Rank {
	for r, s := range n.Status {
		if s == StatusDetector {
			return Rank(r)
		}
	}
	return NilRank
}

// RescueOf reports the logical rank that physical rank r holds in this
// notice, and whether it holds one.
func (n *Notice) RescueOf(r Rank) (int, bool) {
	for l, p := range n.ActPhys {
		if p == r {
			return l, true
		}
	}
	return -1, false
}

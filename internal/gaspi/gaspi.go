// Package gaspi implements the GASPI communication API (as implemented by
// GPI-2) on top of the simulated fabric, covering the subset the paper's
// fault-tolerant application uses plus the GPI-2 fault-tolerance extensions
// the paper introduces:
//
//   - PGAS segments: contiguous memory blocks remotely writable by every
//     rank (SegmentCreate, Write).
//   - Weak synchronization via notifications (WriteNotify, Notify,
//     NotifyWaitsome, NotifyReset) with the GASPI ordering guarantee: a
//     notification arrives after the writes posted before it on the same
//     queue to the same target.
//   - Queues with completion semantics (WaitQueue).
//   - Passive (two-sided) communication.
//   - Groups (GroupCreate/Add/Commit/Delete) and collectives (Barrier,
//     Allreduce) — the blocking GroupCommit is the paper's OHF2 overhead.
//   - Timeouts on every potentially blocking procedure (Block, Test, or any
//     duration), the error state vector (State/StateVec), and the paper's
//     extensions ProcPing and ProcKill.
//
// Every simulated GASPI process is a goroutine launched by Launch; its NIC
// (the delivery handler that the fabric shard serving the process runs for
// each arriving message) services remote operations even while the
// application code computes, which is what makes one-sided progress and the
// dedicated fault-detector design work.
//
// Queues are independent completion domains: traffic classes that must not
// delay each other (halo exchange, notice-board writes, bulk checkpoint
// replication) post on separate queues and flush them separately — the
// idiom the ft layer's dedicated checkpoint queue relies on.
package gaspi

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/fabric"
)

// Rank identifies a GASPI process. It aliases fabric.Rank so ranks flow
// between layers without conversion.
type Rank = fabric.Rank

// SegmentID names a memory segment. Segment IDs are assigned by the
// application and must be allocated consistently across ranks.
type SegmentID int32

// QueueID names a communication queue.
type QueueID int

// NotificationID indexes a notification slot within a segment.
type NotificationID int

// GroupID names a process group. Unlike the C API (which allocates group
// handles from a per-process counter), groups are named explicitly so that
// ranks joining a group late — the paper's rescue processes — can refer to
// the same group deterministically.
type GroupID int32

// GroupAll is the predefined group containing all ranks, committed at init.
const GroupAll GroupID = 0

// Timeout sentinels, mirroring GASPI_BLOCK and GASPI_TEST.
const (
	// Block waits indefinitely (GASPI_BLOCK).
	Block time.Duration = math.MaxInt64
	// Test polls exactly once without waiting (GASPI_TEST).
	Test time.Duration = 0
)

// ProcState is an entry of the error state vector.
type ProcState uint8

// Error state vector values (gaspi_state_t).
const (
	StateHealthy ProcState = iota // GASPI_STATE_HEALTHY
	StateCorrupt                  // GASPI_STATE_CORRUPT
)

func (s ProcState) String() string {
	if s == StateHealthy {
		return "HEALTHY"
	}
	return "CORRUPT"
}

// Errors returned by GASPI procedures. ErrTimeout corresponds to
// GASPI_TIMEOUT; the remaining errors correspond to GASPI_ERROR with a
// diagnosable cause.
var (
	// ErrTimeout reports that a potentially blocking procedure could not
	// complete within the caller's timeout (GASPI_TIMEOUT).
	ErrTimeout = errors.New("gaspi: timeout")
	// ErrAttention is the ErrTimeout an armed wait returns early because
	// the process's attention line is raised (attention.go). It wraps
	// ErrTimeout — the call is resumable exactly like an expired timeout —
	// and exists only so the caller can tell a pushed return from an
	// expired one.
	ErrAttention = fmt.Errorf("%w: attention line raised", ErrTimeout)
	// ErrConnection reports a broken connection to a remote rank — the
	// remote process is dead (GASPI_ERROR).
	ErrConnection = errors.New("gaspi: connection error")
	// ErrConnBroken reports that a collective failed because a group
	// member's connection is conclusively broken (the member died while
	// the operation was in flight). It wraps ErrConnection, so existing
	// errors.Is(err, ErrConnection) checks keep matching; unlike a bare
	// timeout it is returned promptly, without waiting out the caller's
	// timeout budget.
	ErrConnBroken = fmt.Errorf("%w: collective member lost", ErrConnection)
	// ErrReset marks a connection error whose dead rank was witnessed: its
	// connection reset arrived (Proc.die) before anything of this process
	// was NACKed by it. It is joined to an ErrConnection, never returned
	// alone, so it only says how the death became known.
	ErrReset = errors.New("gaspi: connection reset by peer")
	// ErrQueue reports that one or more operations on a queue completed
	// with an error; the state vector identifies the corrupt ranks.
	ErrQueue = errors.New("gaspi: queue error")
	// ErrGroupMismatch reports inconsistent membership at GroupCommit.
	ErrGroupMismatch = errors.New("gaspi: group membership mismatch")
	// ErrInvalid reports invalid arguments (bad segment, offset, rank...).
	ErrInvalid = errors.New("gaspi: invalid argument")
	// ErrRemote reports that the remote side rejected an operation
	// (unknown segment, out-of-bounds access, full passive buffer).
	ErrRemote = errors.New("gaspi: remote error")
	// ErrStaleView reports that a collective was attempted on a group whose
	// membership view is older than the process's published view version:
	// the caller has yet to act on a failure notice and must apply the new
	// view (rebuild the group from the latest notice) before collectives on
	// the group can proceed.
	ErrStaleView = errors.New("gaspi: stale membership view")
)

// Message kinds on the fabric (fabric.KindNack is reserved by the fabric).
// The values are fixed: per-kind fabric counters are read by number.
const (
	kWrite      uint8 = 1  // one-sided write, optional piggybacked notification
	kWriteAck   uint8 = 2  // completion for kWrite/kNotify at the target
	kNotify     uint8 = 5  // notification only
	kPassive    uint8 = 6  // passive (two-sided) send
	kPassiveAck uint8 = 7  // passive receive-side acknowledgment
	kPing       uint8 = 10 // liveness probe (gaspi_proc_ping extension)
	kPingAck    uint8 = 11 // probe response
	kKill       uint8 = 12 // management-plane kill (gaspi_proc_kill extension)
	kColl       uint8 = 13 // group-commit handshake round
	kProbe      uint8 = 14 // fire-and-forget collective liveness probe
	kDeadGossip uint8 = 15 // fire-and-forget "rank X looks dead" hint (Args[0]=X)
	kReset      uint8 = 16 // a dying process's connection reset (see Proc.die)
)

// remote error codes carried in acks (Args[0]).
const (
	remOK int64 = iota
	remBadSegment
	remOutOfBounds
	remPassiveFull
)

func remoteErr(code int64) error {
	switch code {
	case remOK:
		return nil
	case remBadSegment:
		return fmt.Errorf("%w: unknown segment", ErrRemote)
	case remOutOfBounds:
		return fmt.Errorf("%w: out-of-bounds access", ErrRemote)
	case remPassiveFull:
		return fmt.Errorf("%w: passive buffer full", ErrRemote)
	default:
		return ErrRemote
	}
}

// collective kinds: the in-flight tag pinned by startCollective, so a
// collective resumed after a timeout is matched against the operation
// that started it (collReduce is the float64 allreduce, collReduceI the
// int64 variant). collCommit tags a group commit's cursor.
const (
	collBarrier uint8 = iota + 1
	collCommit
	collReduce
	collReduceI
)

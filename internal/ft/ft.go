// Package ft implements the paper's application-driven fault tolerance on
// top of the GASPI layer — its core contribution (Section IV):
//
//   - A dedicated fault-detector (FD) process, one of the pre-allocated
//     idle processes, periodically pings every other process
//     (gaspi_proc_ping) and maintains the global health view (Listing 1).
//     A threaded FD scans in parallel, so simultaneous failures are
//     detected for the cost of one.
//   - On failure, the FD assigns rescue processes from the idle pool,
//     enforces the death of suspects (gaspi_proc_kill — this is what makes
//     false positives harmless), and acknowledges the failure to every
//     healthy process by writing a notice board into their global memory
//     with a one-sided write followed by a notification.
//   - Worker processes check for the failure-acknowledgment signal in
//     every blocking communication call. The paper looks at the board
//     after a call returned GASPI_TIMEOUT; here the acknowledgment itself
//     wakes the blocked call (the gaspi attention line), and a worker
//     with first-hand evidence of a death asks the FD to scan now
//     (NotifSuspect): a broken-connection error on its own write, or the
//     NACK of the one ping a blocked call sends its ring successor when a
//     slice of the communication timeout expires with nothing on the
//     board. A ping that merely times out is no evidence; the timeout and
//     the periodic scan remain as the backstop, and the FD alone declares
//     a rank dead. On acknowledgment they stop application communication and
//     enter the recovery stage: rescue processes take over the identity (logical
//     rank) of the failed ones, the worker group is deleted and a new one
//     is created and committed (Listing 2), and data is re-initialized
//     from the last consistent checkpoint. That collective commit is the
//     only group repair; a hot shadow (Config.Replication) taking over its
//     primary changes where the state comes from, not how the group is
//     repaired.
//   - CPStream (cpstream.go) is the data plane of checkpoint replication,
//     under both commit disciplines: chunked one-sided writes on a
//     dedicated queue push sealed checkpoint frames into the ring
//     neighbor's staging segment, where an applier goroutine commits
//     complete frames to the node-local store — the replica that survives
//     the sender's death — and carry a shadowed primary's mirror frames to
//     its hot shadow.
//
// The two alternative detectors the paper investigated and rejected
// (all-to-all ping and neighbor-ring ping) live beside their only user,
// the ablation, in internal/experiment.
package ft

import (
	"fmt"
	"time"

	"repro/internal/gaspi"
)

// Rank aliases the GASPI rank type.
type Rank = gaspi.Rank

// SegBoard is the reserved notice-board segment present on every process.
const SegBoard gaspi.SegmentID = 1

// Notification slots on the notice board segment.
const (
	// NotifAck is the failure-acknowledgment signal; its value is the
	// recovery epoch.
	NotifAck gaspi.NotificationID = 0
	// NotifShutdown tells idle processes (FD, spares) the application
	// completed.
	NotifShutdown gaspi.NotificationID = 1
	// NotifSuspect is the survivor's nudge on the FD's board: a worker
	// whose communication came back with a broken connection asks for a
	// scan now instead of at the end of the scan interval. It sits next
	// to NotifShutdown so both fall in the FD's one interruptible sleep.
	// The nudge names nobody and declares nothing; the scan it triggers
	// is the ordinary one.
	NotifSuspect gaspi.NotificationID = 2
)

// SuspectQueue carries the NotifSuspect nudges, kept off the application's
// queues so a nudge NACKed by a dead FD never surfaces as a queue error of
// the halo exchange.
const SuspectQueue gaspi.QueueID = 5

// BaseGroupID is the group id of the initial worker group; the group
// created by recovery epoch e has id BaseGroupID+e, deterministically on
// every process.
const BaseGroupID gaspi.GroupID = 8

// WorkerGroupID returns the worker group id for a recovery epoch.
func WorkerGroupID(epoch uint64) gaspi.GroupID {
	return BaseGroupID + gaspi.GroupID(epoch)
}

// Role classifies a process at job start (Figure 3: processes are
// categorized into working and idle processes; one idle process acts as
// the FD).
type Role int

// Roles.
const (
	// RoleDetector is the dedicated fault-detector process.
	RoleDetector Role = iota
	// RoleSpare is an idle process waiting to rescue a failed worker.
	RoleSpare
	// RoleWorker computes.
	RoleWorker
)

func (r Role) String() string {
	switch r {
	case RoleDetector:
		return "detector"
	case RoleSpare:
		return "spare"
	default:
		return "worker"
	}
}

// Layout fixes the role arrangement: physical rank 0 is the FD, ranks
// 1..Spares are idle spares, the rest are workers (logical rank L starts
// on physical rank 1+Spares+L).
type Layout struct {
	// Procs is the total number of ranks.
	Procs int
	// Spares is the number of idle spare processes (excluding the FD).
	Spares int
	// Shadows is the number of hot shadows: spare rank 1+L shadows
	// logical L for every L below it (core.Config.Layout derives it from
	// Config.Replication). Zero disables shadowing.
	Shadows int
}

// Workers returns the number of worker (logical) ranks.
func (l Layout) Workers() int { return l.Procs - 1 - l.Spares }

// Validate checks the layout is usable.
func (l Layout) Validate() error {
	if l.Spares < 0 || l.Shadows < 0 || l.Shadows > l.Spares || l.Workers() < 1 {
		return fmt.Errorf("ft: invalid layout: %d procs, %d spares, %d shadows", l.Procs, l.Spares, l.Shadows)
	}
	return nil
}

// RoleOf returns the initial role of a physical rank.
func (l Layout) RoleOf(r Rank) Role {
	switch {
	case r == 0:
		return RoleDetector
	case int(r) <= l.Spares:
		return RoleSpare
	default:
		return RoleWorker
	}
}

// ShadowOf returns the spare rank acting as hot shadow for a logical
// worker rank, if the layout assigns one: logical L shadows to spare rank
// 1+L while L is below Shadows, so the detector, every worker and the
// shadow itself agree on it without communication.
func (l Layout) ShadowOf(logical int) (Rank, bool) {
	if logical < 0 || logical >= l.Shadows {
		return 0, false
	}
	return Rank(1 + logical), true
}

// InitialPhysical returns the physical rank initially hosting a logical
// worker rank.
func (l Layout) InitialPhysical(logical int) Rank {
	return Rank(1 + l.Spares + logical)
}

// InitialActPhys builds the initial logical→physical map.
func (l Layout) InitialActPhys() []Rank {
	m := make([]Rank, l.Workers())
	for i := range m {
		m[i] = l.InitialPhysical(i)
	}
	return m
}

// ProcStatus is the per-process entry of the status array the FD maintains
// and distributes (the paper's status_processes: working, failed or idle).
type ProcStatus uint8

// Status values.
const (
	StatusWorking ProcStatus = iota
	StatusIdle
	StatusFailed
	StatusDetector
)

func (s ProcStatus) String() string {
	switch s {
	case StatusWorking:
		return "WORKING"
	case StatusIdle:
		return "IDLE"
	case StatusFailed:
		return "FAILED"
	case StatusDetector:
		return "DETECTOR"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// DefaultPingRetries is the ping retry budget when Config.PingRetries is
// zero. Ten spaced attempts give a slow-but-healthy rank ≈200 ms of real
// time (at the default 10 ms timeout) to answer before it is declared
// failed — calibrated to a heavily oversubscribed host (all simulated
// ranks sharing one core), where the shard running a rank's NIC can
// starve for tens of milliseconds while a recovery is churning. The budget is free
// against real process deaths (a dead rank NACKs on the first attempt);
// it only delays the detection of unreachable-but-alive ranks.
const DefaultPingRetries = 10

// Config holds the fault-tolerance timing parameters (paper Section VI:
// scan every 3 s, communication timeout 1 s).
type Config struct {
	// ScanInterval is the FD's pause between ping scans. It bounds the
	// detection of a failure nobody is blocked on (a dead spare, an idle
	// job) and of an unreachable-but-alive rank; a death a survivor runs
	// into — a NACKed write, or the NACKed successor ping of a blocked
	// call — is scanned for at once, on that survivor's NotifSuspect nudge.
	ScanInterval time.Duration
	// PingTimeout bounds each individual ping.
	PingTimeout time.Duration
	// CommTimeout is the worker-side blocking-call timeout after which the
	// failure-acknowledgment signal is checked. The acknowledgment landing
	// on the board ends the blocked call early, so the expiry is the
	// fallback. A blocked call spends it in slices — CommTimeout/16 first,
	// doubling per expiry up to the whole — and pings its ring successor
	// after each expired slice, so it also sets how soon a death that left
	// no NACK is noticed; and it paces a worker's nudges to the FD (at most
	// one per CommTimeout).
	CommTimeout time.Duration
	// Threads is the FD's scan parallelism (the paper uses 8 so multiple
	// simultaneous failures are detected at the cost of one).
	Threads int
	// PingRetries is how many consecutive timed-out pings the FD needs
	// before declaring a rank failed. A NACKed ping (broken connection —
	// the rank is conclusively dead) fails on the first attempt, so
	// retries cost nothing against real process deaths; they only slow
	// the detection of unreachable (partitioned) ranks by
	// (PingRetries-1)×PingTimeout. This is the host calibration that
	// makes the default 1/100 time scale (10 ms real-time ping timeout)
	// robust on shared-CPU machines, where scheduler stalls of the shard
	// running a healthy rank's NIC can exceed a single timeout. Zero
	// means DefaultPingRetries.
	PingRetries int
	// StallLimit aborts a worker stuck retrying without acknowledgment
	// (e.g. when the FD itself died — the paper's restriction 2). Zero
	// means 100×CommTimeout.
	StallLimit time.Duration
	// Deprecated: LocalizedRepair is inert. There is one group repair, the
	// collective commit; the field remains only until its last assignment
	// (the frozen benchmark module) is removed.
	LocalizedRepair bool
	// Replication is the per-checkpoint-family hot-shadow policy: family
	// name → replication degree. Degree d assigns the first d logical
	// ranks a dedicated hot shadow (spare rank 1+logical) that keeps the
	// newest intact frame the primary pushes over the checkpoint stream
	// each iteration, so a detector NACK for a shadowed primary is
	// absorbed with no checkpoint restore and no recomputed iterations
	// (core's reload agreement). ft itself never reads it: the effective
	// degree is Layout.Shadows, which core.Config.Layout computes as the
	// maximum over all families, capped by the spares (less the
	// FD-redundancy standby). Shadows consumed by a takeover do not return
	// to the idle pool. Nil or empty disables shadowing.
	Replication map[string]int
}

func (c Config) withDefaults() Config {
	if c.ScanInterval <= 0 {
		c.ScanInterval = 30 * time.Millisecond // 3 s / TimeScale(100)
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = 10 * time.Millisecond
	}
	if c.CommTimeout <= 0 {
		c.CommTimeout = 10 * time.Millisecond // 1 s / TimeScale(100)
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.PingRetries <= 0 {
		c.PingRetries = DefaultPingRetries
	}
	if c.StallLimit <= 0 {
		c.StallLimit = 100 * c.CommTimeout
	}
	return c
}

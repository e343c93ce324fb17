package trace

// This file is the canonical registry of trace counter and event keys.
// Counter names used to be stringly-typed across the tree; every
// Recorder.Inc / Recorder.Counter / Summary.SumCounter lookup now goes
// through one of these constants (or a registered dynamic-prefix helper
// like RestoreFromKey), and the ftlint `tracekey` pass fails the build on
// any raw string literal or unknown key at a call site. The pass reads the
// registry out of this package's type-checked scope: an exported string
// constant named K* is a counter key, KEv* an event key, and there is no
// second list to keep in step. Adding a counter means adding its constant
// here first — the registry, not the call site, is the source of truth.

// Counter keys.
const (
	// Core iteration-loop and recovery counters (internal/core).
	KCoreCheckpoints         = "core.checkpoints"
	KCoreCPFlushErrors       = "core.cp_flush_errors"
	KCoreRecoveryRestarts    = "core.recovery_restarts"
	KCoreRestartsFromScratch = "core.restarts_from_scratch"
	KCoreRestores            = "core.restores"
	KCoreRestoreRetreats     = "core.restore_retreats"
	KCoreAgreementViolations = "core.agreement_violations"

	// checkpoint.WriterStats.Released at the end of a rank's run: the
	// generations the store's retention rule released.
	KCoreCPReleased = "core.cp_released"

	// Per-phase TTR decomposition around core.recoverAndReload.
	KCoreTTRRebuildNS = "core.ttr.rebuild_ns"
	KCoreTTRRestoreNS = "core.ttr.restore_ns"
	KCoreTTRResumeNS  = "core.ttr.resume_ns"
	KCoreTTRTotalNS   = "core.ttr.total_ns"
	// Garbage-collection cycles that completed while core.recoverAndReload
	// ran (runtime/metrics /gc/cycles/total:gc-cycles; process-wide, so
	// every rank's allocations and not only the recovering rank's count).
	KCoreTTRGCCycles = "core.ttr.gc_cycles"

	// Iterations re-executed after a recovery (redo work). Zero in the
	// hot-shadow takeover — its acceptance criterion.
	KCoreRedoIters = "core.redo_iters"

	// A hot shadow's warm-up of its primary's application structures
	// (core.shadowMain): takeovers that found it done, warm-ups thrown away
	// because the shadow was activated for another rank, and warm-ups that
	// returned an error (the rescue then loads cold).
	KCorePrewarmHits      = "core.prewarm.hits"
	KCorePrewarmDiscarded = "core.prewarm.discarded"
	KCorePrewarmFailed    = "core.prewarm.failed"

	// Restore-source classification (suffix = cluster.RestoreSource.String()).
	KCoreRestoreFromLocal    = "core.restore_from_local"
	KCoreRestoreFromNeighbor = "core.restore_from_neighbor"
	KCoreRestoreFromRemote   = "core.restore_from_remote"
	KCoreRestoreFromPFS      = "core.restore_from_pfs"

	// Failure-detector scan loop (internal/ft Detector).
	KFDRecoveries  = "fd.recoveries"
	KFDScans       = "fd.scans"
	KFDPings       = "fd.pings"
	KFDScanNS      = "fd.scan_ns"
	KFDCleanScans  = "fd.clean_scans"
	KFDCleanScanNS = "fd.clean_scan_ns"
	// Scans started by a worker's NotifSuspect nudge, not by the interval,
	// and the recoveries whose detecting scan was one of them (pushed
	// detection; the rest of fd.recoveries is interval-bound).
	KFDScansNudged      = "fd.scans.nudged"
	KFDRecoveriesNudged = "fd.recoveries.nudged"

	// Recovery epoch state machine (internal/ft Worker).
	KFTRecoveries       = "ft.recoveries"
	KFTEpochs           = "ft.epochs"
	KFTEpochRestarts    = "ft.epoch.restarts"
	KFTEpochRegressions = "ft.epoch.regressions"
	KFTPhaseDetectNS    = "ft.phase.detect_ns"
	KFTPhaseAckNS       = "ft.phase.ack_ns"
	KFTPhaseRebuildNS   = "ft.phase.rebuild_ns"
	KFTPhaseRestoreNS   = "ft.phase.restore_ns"

	// How a failure acknowledgment reached a blocked worker: woken by the
	// attention line, or found after the communication timeout expired (the
	// fallback — a full CommTimeout, not a slice of it); the nudges workers
	// sent the FD on first-hand evidence; and where the unwitnessed part of
	// that evidence comes from: the pings blocked workers sent their ring
	// successor after a slice expired, and how many a dead endpoint NACKed.
	KFTAckWoken      = "ft.ack.woken"
	KFTAckTimedOut   = "ft.ack.timed_out"
	KFTSuspectNudges = "ft.suspect.nudges"
	KFTProbePings    = "ft.probe.pings"
	KFTProbeNacks    = "ft.probe.nacks"

	// How each acknowledged failure wait of a worker began (ft.Worker.retry),
	// one count per wait: it failed on a dead source whose connection reset
	// had arrived (the witness), on a NACK or another post error, on an
	// expired slice followed by a successor probe, or on none of these —
	// the acknowledgment reached it first.
	KFTDetectReset = "ft.detect.reset"
	KFTDetectNack  = "ft.detect.nack"
	KFTDetectProbe = "ft.detect.probe"
	KFTDetectAcked = "ft.detect.acked"

	// Hot shadow ranks (internal/ft standby mirror + failover takeover).
	KFTShadowAppliedFrames = "ft.shadow.applied_frames"
	KFTShadowFailovers     = "ft.shadow.failovers"
	KFTShadowFallbacks     = "ft.shadow.fallbacks"
	KFTShadowTornTails     = "ft.shadow.torn_tails"

	// Alternative detectors and spares.
	KProberPings       = "prober.pings"
	KStandbyPromotions = "standby.promotions"

	// spMVM engine iterations. The engine has one halo path, the zero-copy
	// one; the fallback key stays for readers of old traces and reads 0.
	KSpMVMFastpathIters = "spmvm.fastpath_iters"
	KSpMVMFallbackIters = "spmvm.fallback_iters"

	// The rescue loader's background half (apps.rowBlock.load): loads run,
	// the time generating the block and cutting it (spmvm.Generate, then
	// spmvm.Split.Cut) took on the loader's goroutine, and the time the
	// rank's first multiply blocked for it (spmvm.Engine.joinCut; zero when
	// the load had landed — a warm shadow's, or a cold rescue whose recovery
	// outlasted it). Init(restore=true)'s span contains none of this.
	KAppsBlockLoads      = "apps.block.loads"
	KAppsBlockBuildNS    = "apps.block.build_ns"
	KAppsBlockJoinWaitNS = "apps.block.join_wait_ns"
)

// restoreFromPrefix is the registered dynamic prefix behind RestoreFromKey
// (the tracekey pass accepts any key under it, by this constant's name).
const restoreFromPrefix = "core.restore_from_"

// Event keys (Recorder.Event / Recorder.FirstEvent markers).
const (
	KEvFDDetect       = "fd:detect"
	KEvFDAck          = "fd:ack"
	KEvFTAck          = "ft:ack"
	KEvProberSuspect  = "prober:suspect"
	KEvStandbyDead    = "standby:fd-dead"
	KEvShadowTakeover = "shadow:takeover"
)

// RestoreFromKey builds the per-source restore counter key from a restore
// source's String() form (local / neighbor / remote / pfs). It is the one
// registered way to build a counter key dynamically; the tracekey pass
// rejects ad-hoc string concatenation at call sites.
func RestoreFromKey(source string) string {
	return restoreFromPrefix + source
}

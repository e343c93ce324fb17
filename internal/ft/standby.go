package ft

import (
	"repro/internal/gaspi"
	"repro/internal/trace"
)

// This file implements the paper's stated future work: "The redundancy
// approach can be implemented to make the FD process fault tolerant"
// (Section VIII). A standby detector runs on the highest-ranked spare: it
// idles like any spare (and can still be activated as a rescue — it is
// deliberately the last spare the FD picks), but additionally pings the FD
// itself every scan interval. When the FD dies, the standby promotes
// itself: it reconstructs the detector state from the last notice it saw
// on its own board, marks the FD failed, and continues scanning — so the
// paper's restriction 2 ("the fault tolerance capability of a program ends
// if the FD encounters a failure") is lifted for a single FD failure.

// StandbyRank returns the physical rank hosting the standby detector: the
// highest spare (picked last as a rescue).
func (l Layout) StandbyRank() Rank { return Rank(l.Spares) }

// StandbyOutcome is how a standby's vigil ended.
type StandbyOutcome int

// Outcomes of WaitStandby.
const (
	// StandbyShutdown: the application completed.
	StandbyShutdown StandbyOutcome = iota
	// StandbyActivated: the FD picked this spare as a rescue; the caller
	// proceeds with the normal rescue path (FD redundancy ends).
	StandbyActivated
	// StandbyPromoted: the FD died; the caller must run the returned
	// Detector.
	StandbyPromoted
)

// WaitStandby is the standby detector's idle loop: the spare loop of
// WaitActivation with a periodic liveness probe of the FD. On FD death it
// returns a promoted Detector that carries on from the last known global
// state.
func WaitStandby(p *gaspi.Proc, lay Layout, cfg Config, rec *trace.Recorder) (StandbyOutcome, *Detector, *Notice, int, error) {
	out, n, logical, err := idleSpare(p, lay, cfg, true)
	if err != nil {
		return StandbyShutdown, nil, nil, 0, err
	}
	if out == StandbyPromoted {
		rec.Event(trace.KEvStandbyDead)
		rec.Inc(trace.KStandbyPromotions, 1)
		return StandbyPromoted, promoteStandby(p, lay, cfg, rec, n), nil, 0, nil
	}
	return out, nil, n, logical, nil
}

// promoteStandby builds a Detector on the standby process, seeded from the
// last notice (or the initial layout when no failure ever happened), with
// the old FD marked failed and enforced dead.
//
// Order matters: the promoted rank re-arms its own detector entry BEFORE
// the seed from the last notice is applied, entry by entry, skipping
// itself. The notice records this rank as the FD saw it — StatusIdle — so
// a blanket copy would clobber the self entry and leave the new detector
// believing its own rank is an idle spare until some later write fixed it
// up: a window where the freshly promoted detector is unmonitored and
// assignable as a rescue by its own bookkeeping.
func promoteStandby(p *gaspi.Proc, lay Layout, cfg Config, rec *trace.Recorder, last *Notice) *Detector {
	d := NewDetector(p, lay, cfg, rec)
	self := p.Rank()
	d.status[self] = StatusDetector
	if last != nil {
		for r, s := range last.Status {
			if Rank(r) == self {
				continue // the self entry is already re-armed above
			}
			d.status[r] = s
			if s == StatusFailed {
				d.avoid[r] = true
			}
		}
		copy(d.actPhys, last.ActPhys)
		d.epoch = last.Epoch
	}
	// The old FD is gone; this process is the detector now.
	d.status[0] = StatusFailed
	d.avoid[0] = true
	_ = p.ProcKill(0, gaspi.Block) // enforce, in case it was a false positive
	return d
}

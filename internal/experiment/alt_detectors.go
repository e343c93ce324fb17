package experiment

import (
	"errors"
	"sync"
	"time"

	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/trace"
)

// This file implements the two alternative failure-detection mechanisms
// the paper investigated and rejected (Section IV.A.b):
//
//  1. Ping-based all-to-all: every process periodically pings every other
//     process.
//  2. Ping-based neighbor level: process i periodically pings only process
//     i+1; a suspected failure triggers one all-to-all scan for a global
//     view.
//
// Both run as background prober goroutines next to the application and are
// used by the ablation benchmark to quantify what the paper argues
// qualitatively: the all-to-all scheme costs O(n²) pings per period and
// perturbs the application even in failure-free runs, while the dedicated
// FD keeps the failure-free overhead at zero (from the workers'
// perspective) with only O(n) pings by a process that has nothing else to
// do. Neither alternative resolves the multi-detector consensus problem
// (different processes can suspect different failure sets), which is the
// qualitative reason the paper rejects them.

// ProbeStats aggregates what a background prober did and found.
type ProbeStats struct {
	// Scans is the number of completed probe rounds.
	Scans int64
	// Pings is the number of pings issued.
	Pings int64
	// Suspicions counts (process, suspect) pairs ever suspected.
	Suspicions int64
	// FirstSuspicion is when the first failure was suspected locally.
	FirstSuspicion time.Time
	// Suspected is the set of ranks this process suspects.
	Suspected []gaspi.Rank
}

// Prober is a background failure detector running on an application
// process (as opposed to the dedicated FD process).
type Prober struct {
	p        *gaspi.Proc
	cfg      ft.Config // ScanInterval and PingTimeout pace the rounds
	rec      *trace.Recorder
	neighbor bool // neighbor-ring mode instead of all-to-all

	mu        sync.Mutex
	stats     ProbeStats
	suspected map[gaspi.Rank]bool

	stop chan struct{}
	done chan struct{}
}

// NewAllToAllProber creates the all-to-all detector for this process.
func NewAllToAllProber(p *gaspi.Proc, cfg ft.Config, rec *trace.Recorder) *Prober {
	return newProber(p, cfg, rec, false)
}

// NewNeighborProber creates the neighbor-ring detector for this process.
func NewNeighborProber(p *gaspi.Proc, cfg ft.Config, rec *trace.Recorder) *Prober {
	return newProber(p, cfg, rec, true)
}

func newProber(p *gaspi.Proc, cfg ft.Config, rec *trace.Recorder, neighbor bool) *Prober {
	return &Prober{
		p:         p,
		cfg:       cfg,
		rec:       rec,
		neighbor:  neighbor,
		suspected: make(map[gaspi.Rank]bool),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start launches the prober goroutine.
func (b *Prober) Start() {
	go b.run()
}

// Stop terminates the prober and waits for it to finish.
func (b *Prober) Stop() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	<-b.done
}

// Stats returns a snapshot of the prober's counters.
func (b *Prober) Stats() ProbeStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.Suspected = make([]gaspi.Rank, 0, len(b.suspected))
	for r := range b.suspected {
		s.Suspected = append(s.Suspected, r)
	}
	return s
}

func (b *Prober) run() {
	defer close(b.done)
	t := time.NewTicker(b.cfg.ScanInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
		}
		died := gaspi.Protect(func() { // the probing process may itself die
			if b.neighbor {
				b.neighborRound()
			} else {
				b.allToAllRound()
			}
		})
		if died {
			return
		}
	}
}

func (b *Prober) allToAllRound() {
	n := b.p.NumProcs()
	newSuspects := false
	for r := 0; r < n; r++ {
		if gaspi.Rank(r) == b.p.Rank() || b.isSuspected(gaspi.Rank(r)) {
			continue
		}
		if b.pingOnce(gaspi.Rank(r)) != nil {
			b.suspect(gaspi.Rank(r))
			newSuspects = true
		}
	}
	b.mu.Lock()
	b.stats.Scans++
	b.mu.Unlock()
	if newSuspects {
		b.rec.Event(trace.KEvProberSuspect)
	}
}

func (b *Prober) neighborRound() {
	n := b.p.NumProcs()
	next := gaspi.Rank((int(b.p.Rank()) + 1) % n)
	// Skip over already-suspected neighbors to the next live candidate.
	for i := 0; i < n-1 && b.isSuspected(next); i++ {
		next = gaspi.Rank((int(next) + 1) % n)
	}
	if next == b.p.Rank() {
		return
	}
	err := b.pingOnce(next)
	b.mu.Lock()
	b.stats.Scans++
	b.mu.Unlock()
	if err != nil {
		// Neighbor failure suspected: escalate to one all-to-all scan for
		// the global health view, as the paper describes.
		b.suspect(next)
		b.rec.Event(trace.KEvProberSuspect)
		b.allToAllRound()
	}
}

func (b *Prober) pingOnce(r gaspi.Rank) error {
	b.mu.Lock()
	b.stats.Pings++
	b.mu.Unlock()
	b.rec.Inc(trace.KProberPings, 1)
	err := b.p.ProcPing(r, b.cfg.PingTimeout)
	if err != nil && errors.Is(err, gaspi.ErrInvalid) {
		return nil
	}
	return err
}

func (b *Prober) isSuspected(r gaspi.Rank) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.suspected[r]
}

func (b *Prober) suspect(r gaspi.Rank) {
	b.mu.Lock()
	if !b.suspected[r] {
		b.suspected[r] = true
		b.stats.Suspicions++
		if b.stats.FirstSuspicion.IsZero() {
			b.stats.FirstSuspicion = time.Now()
		}
	}
	b.mu.Unlock()
}

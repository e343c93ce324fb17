package core

import (
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/ft"
	"repro/internal/trace"
)

// prewarm is a hot shadow's warm-up of its primary's application
// structures: one goroutine, parked until the mirror applier triggers it or
// the shadow stops waiting, whichever comes first, that builds the process's
// App and runs its optional Prewarm hook. shadowMain starts it and settles
// it on every way out, so nothing of it outlives the shadow loop.
type prewarm struct {
	trigger, cancel, exited chan struct{}
	fire, stop              sync.Once

	// Written by the goroutine, read after settle.
	app    App  // the process's one App; nil when the warm-up never ran
	warmed bool // the hook exists and returned nil
}

// startPrewarm parks the warm-up of logical rank primary on the shadow
// process cctx.
func startPrewarm(cctx *cluster.ProcCtx, cfg Config, lay ft.Layout, newApp func() App, rec *trace.Recorder, primary int) *prewarm {
	w := &prewarm{
		trigger: make(chan struct{}),
		cancel:  make(chan struct{}),
		exited:  make(chan struct{}),
	}
	go func() {
		defer close(w.exited)
		select {
		case <-w.trigger:
		case <-w.cancel:
			return
		}
		w.app = newApp()
		hook, ok := w.app.(interface {
			Prewarm(ctx *Ctx, logical int) error
		})
		if !ok {
			return
		}
		// A library of its own, for the one plan fetch: the worker flow
		// creates its library only once it has a rank map to derive the
		// neighbor ring from. This one never gets a neighbor, so it
		// replicates nothing and needs no transport.
		cp := checkpoint.New(cctx.Cluster, cctx.NodeID, cfg.CP, nil)
		defer cp.Stop()
		err := hook.Prewarm(&Ctx{
			Proc:    cctx.Proc,
			CP:      cp,
			Cluster: cctx,
			Logical: primary,
			Layout:  lay,
			Rec:     rec,
			Cfg:     cfg,
		}, primary)
		if err != nil {
			// Not fatal: a rescue's Init loads what the warm-up could not.
			rec.Inc(trace.KCorePrewarmFailed, 1)
			return
		}
		w.warmed = true
	}()
	return w
}

// Trigger lets the warm-up run. Any goroutine may call it, any number of
// times.
func (w *prewarm) Trigger() { w.fire.Do(func() { close(w.trigger) }) }

// settle ends the warm-up: one that was never triggered will not start,
// one that is running is waited for. After it returns app and warmed are
// final.
func (w *prewarm) settle() {
	w.stop.Do(func() { close(w.cancel) })
	<-w.exited
}

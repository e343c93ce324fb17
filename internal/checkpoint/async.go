package checkpoint

import (
	"sync"
	"time"
)

// AsyncStats describes what the double-buffered writer has done. All
// fields are totals since New.
type AsyncStats struct {
	// Staged counts checkpoints accepted by Write.
	Staged int64
	// Flushed counts checkpoints whose local commit and replication
	// finished (successfully or with a recorded error).
	Flushed int64
	// StallTime is the total time Write spent blocked because both
	// buffers were in flight — the only application-visible cost beyond
	// the in-memory staging copy.
	StallTime time.Duration
	// FlushTime is the total background time the writer goroutine spent
	// committing and replicating.
	FlushTime time.Duration
}

// cpBuffer is one half of the double buffer: a reusable frame plus the
// identity of the checkpoint staged in it.
type cpBuffer struct {
	data    []byte
	key     string
	name    string
	logical int
	version int64
	toPFS   bool
}

// asyncWriter is the double-buffered checkpoint engine: Write (via stage)
// fills one buffer while the dedicated writer goroutine flushes the other.
// The free channel is the buffer pool (capacity 2 = the two buffer
// halves); work carries staged buffers to the flusher. stage blocks only
// when both halves are in flight, i.e. when the writer is two full
// checkpoint epochs behind the application.
type asyncWriter struct {
	l    *Library
	free chan *cpBuffer
	work chan *cpBuffer

	statsMu sync.Mutex
	stats   AsyncStats
}

func newAsyncWriter(l *Library) *asyncWriter {
	w := &asyncWriter{
		l:    l,
		free: make(chan *cpBuffer, 2),
		work: make(chan *cpBuffer, 2),
	}
	w.free <- &cpBuffer{}
	w.free <- &cpBuffer{}
	go w.run()
	return w
}

// stage encodes the checkpoint into a free buffer half and hands it to the
// writer goroutine. It never touches the storage tiers: the only cost the
// application observes is the frame encode (with FullEvery > 1, the
// chunk-hash diff plus the dirty chunks only) and, when the writer has
// fallen two epochs behind, the back-pressure wait for a free buffer.
func (w *asyncWriter) stage(name string, logical int, version int64, payload []byte) error {
	var b *cpBuffer
	select {
	case b = <-w.free:
	default:
		// Both halves in flight: block until the flusher returns one.
		start := time.Now()
		select {
		case b = <-w.free:
			w.statsMu.Lock()
			w.stats.StallTime += time.Since(start)
			w.statsMu.Unlock()
		case <-w.l.done:
			return ErrStopped
		}
	}
	b.data = w.l.encodeNext(b.data[:0], name, logical, version, payload)
	b.key = Key(name, logical, version)
	b.name = name
	b.logical = logical
	b.version = version
	b.toPFS = w.l.cfg.Mode == ModeNeighbor &&
		w.l.cfg.PFSEvery > 0 && version%int64(w.l.cfg.PFSEvery) == 0
	// The handoff is atomic with shutdown (see Library.sendMu): either
	// this send lands before Stop closes done — so the flusher's final
	// drain processes it — or the staging is refused. A send after the
	// drain would leak the wg count and silently drop the checkpoint.
	w.l.sendMu.Lock()
	select {
	case <-w.l.done:
		w.l.sendMu.Unlock()
		w.free <- b
		return ErrStopped
	default:
	}
	w.l.wg.Add(1)
	w.work <- b // never blocks: at most 2 buffers exist
	w.l.sendMu.Unlock()
	w.statsMu.Lock()
	w.stats.Staged++
	w.statsMu.Unlock()
	return nil
}

// run is the dedicated writer goroutine. Like the sync copier it drains
// staged work on Stop, so an orderly shutdown never discards checkpoints;
// only process death (the abort channel) cuts a flush short.
func (w *asyncWriter) run() {
	for {
		select {
		case b := <-w.work:
			w.flush(b)
		case <-w.l.done:
			for {
				select {
				case b := <-w.work:
					w.flush(b)
				default:
					return
				}
			}
		}
	}
}

// flush commits one staged checkpoint: node-local data+seal, neighbor
// replication, optional PFS copy, pruning. Errors are recorded (Err), not
// fatal: the next recovery simply agrees on an older version.
//
// The transport may post the buffer zero-copy, so a FAILED push (timeout,
// queue purge by recovery, receiver death) may leave in-flight messages
// still borrowing b.data. The buffer is abandoned to the garbage collector
// in that case — the next checkpoint staged into this half simply
// allocates a fresh frame. Failed pushes are rare (they accompany
// failures), so the occasional reallocation costs nothing in steady state.
func (w *asyncWriter) flush(b *cpBuffer) {
	start := time.Now()
	defer func() {
		w.statsMu.Lock()
		w.stats.Flushed++
		w.stats.FlushTime += time.Since(start)
		w.statsMu.Unlock()
		w.free <- b
		w.l.wg.Done()
	}()
	l := w.l
	if l.aborted() {
		return
	}
	l.noteFlush(b.logical, b.version)
	if l.cfg.Mode == ModeGlobalPFS {
		if err := l.putPFS(b.key, b.data, b.version); err != nil {
			l.setErr(err)
		}
		return
	}
	if err := l.putLocal(b.key, b.data, b.version); err != nil {
		l.setErr(err)
		return
	}
	if !l.replicate(b.name, b.key, b.logical, b.version, b.data, b.toPFS && !l.aborted()) {
		b.data = nil
	}
}

// Stats returns the async writer's counters; zero when the library runs in
// Sync mode.
func (l *Library) Stats() AsyncStats {
	if l.async == nil {
		return AsyncStats{}
	}
	l.async.statsMu.Lock()
	defer l.async.statsMu.Unlock()
	return l.async.stats
}

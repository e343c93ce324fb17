package checkpoint

import "time"

// WriterStats describes what the checkpoint writer has done, under either
// commit discipline. All fields are totals since New.
type WriterStats struct {
	// Staged counts checkpoints Write handed to the writer goroutine. Under
	// Sync in ModeGlobalPFS there are none: Write's commit is the whole
	// checkpoint.
	Staged int64
	// Flushed counts staged checkpoints whose flush finished (successfully
	// or with a recorded error).
	Flushed int64
	// StallTime is the total time Write spent blocked because both buffer
	// halves were in flight — beyond the frame encode and, under Sync, the
	// local commit, the only application-visible cost.
	StallTime time.Duration
	// FlushTime is the total time the writer goroutine spent flushing: the
	// local commit under Async, replication under both.
	FlushTime time.Duration
	// Released counts the generations the retention rule freed from the
	// local store.
	Released int64
}

// DeltaStats is what the removed delta chain used to count.
//
// Deprecated: every generation is a full frame; Library.DeltaStats returns
// the zero value, whose TotalChunks of 0 readers take as "no delta engine".
type DeltaStats struct {
	FullBytes   int64
	DeltaBytes  int64
	DirtyChunks int64
	TotalChunks int64
}

// DeltaStats returns the zero value.
//
// Deprecated: nothing is written as a delta any more; read Stats.
func (l *Library) DeltaStats() DeltaStats { return DeltaStats{} }

// cpBuffer is one half of the writer's double buffer: a reusable frame plus
// the identity of the checkpoint staged in it.
type cpBuffer struct {
	data      []byte
	key       string
	name      string
	logical   int
	version   int64
	committed bool // Write ran the commit itself (Sync)
}

// acquire takes a free buffer half. The second half is created the first
// time the first one is in flight, so a writer that keeps up holds one
// frame; acquire waits only while both are in flight — the writer two
// checkpoints behind the application.
func (l *Library) acquire() (*cpBuffer, error) {
	select {
	case b := <-l.free:
		return b, nil
	default:
	}
	if l.halves.CompareAndSwap(1, 2) {
		return &cpBuffer{}, nil
	}
	if h := l.stallHook; h != nil {
		h()
	}
	start := time.Now()
	select {
	case b := <-l.free:
		l.statsMu.Lock()
		l.stats.StallTime += time.Since(start)
		l.statsMu.Unlock()
		return b, nil
	case <-l.done:
		return nil, ErrStopped
	}
}

// handoff passes a staged half to the writer goroutine. It is atomic with
// shutdown (see Library.sendMu): the send lands before Stop closes done, so
// the writer's final drain flushes it, or the checkpoint is refused.
func (l *Library) handoff(b *cpBuffer) error {
	l.sendMu.Lock()
	select {
	case <-l.done:
		l.sendMu.Unlock()
		l.free <- b
		return ErrStopped
	default:
	}
	l.wg.Add(1)
	l.work <- b // never blocks: at most two halves exist (acquire)
	l.sendMu.Unlock()
	l.statsMu.Lock()
	l.stats.Staged++
	l.statsMu.Unlock()
	return nil
}

// run is the writer goroutine, the paper's "library thread". It drains
// staged work on Stop, so an orderly shutdown never discards checkpoints;
// only process death (the abort channel) skips a flush.
func (l *Library) run() {
	for {
		select {
		case b := <-l.work:
			l.flush(b)
		case <-l.done:
			for {
				select {
				case b := <-l.work:
					l.flush(b)
				default:
					return
				}
			}
		}
	}
}

// flush finishes one staged checkpoint: the commit, unless Write ran it,
// then in ModeNeighbor replication (neighbor push, optional PFS copy,
// pruning). Errors are recorded (Err), not fatal: the next recovery simply
// agrees on an older version. A flush not yet begun when the process died
// is skipped whole.
//
// The transport may post the buffer zero-copy, so a FAILED push (timeout,
// queue purge by recovery, receiver death) may leave in-flight messages
// still borrowing b.data. The buffer is abandoned to the garbage collector
// in that case — the next checkpoint staged into this half simply
// allocates a fresh frame. Failed pushes are rare (they accompany
// failures), so the occasional reallocation costs nothing in steady state.
func (l *Library) flush(b *cpBuffer) {
	start := time.Now()
	defer func() {
		l.statsMu.Lock()
		l.stats.Flushed++
		l.stats.FlushTime += time.Since(start)
		l.statsMu.Unlock()
		l.free <- b
		l.wg.Done()
	}()
	if l.aborted() {
		return
	}
	l.noteFlush(b.logical, b.version)
	if !b.committed {
		if err := l.commit(b); err != nil {
			l.setErr(err)
			return
		}
	}
	if l.cfg.Mode == ModeGlobalPFS {
		return
	}
	toPFS := l.cfg.PFSEvery > 0 && b.version%int64(l.cfg.PFSEvery) == 0 && !l.aborted()
	if !l.replicate(b.name, b.key, b.logical, b.version, b.data, toPFS) {
		b.data = nil
	}
}

// commit writes a staged frame to its first tier: the node-local store, or
// in ModeGlobalPFS the shared file system.
func (l *Library) commit(b *cpBuffer) error {
	if l.cfg.Mode == ModeGlobalPFS {
		return l.putPFS(b.key, b.data, b.version)
	}
	return l.putLocal(b.key, b.data, b.version)
}

// Stats returns the writer's counters.
func (l *Library) Stats() WriterStats {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	return l.stats
}

package gaspi

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// queue tracks the completion state of one-sided operations posted on a
// GASPI queue. WaitQueue flushes it: it blocks until every posted operation
// has completed (acknowledged by the target's NIC or NACKed by the fabric).
type queue struct {
	id    QueueID
	mu    sync.Mutex
	out   int // outstanding operations
	gen   uint64
	errs  []opError
	pulse pulse
	// free recycles pendingOp records between post and completion, so the
	// steady-state data plane posts operations without heap allocation.
	free []*pendingOp
}

// drained reports whether every posted operation has completed.
func (q *queue) drained() bool {
	q.mu.Lock()
	d := q.out == 0
	q.mu.Unlock()
	return d
}

type opError struct {
	rank Rank
	err  error
}

// pendingOp is a posted operation awaiting its completion message.
type pendingOp struct {
	kind uint8
	rank Rank
	q    *queue // nil for blocking (non-queued) operations
	qgen uint64 // queue generation at post time; stale after PurgeQueues
	// resp delivers the completion to a blocking caller (ping, passive).
	// Buffered with capacity 1; the NIC never blocks on it.
	resp chan opResult
}

// opResult is an operation's completion: nil, or why it failed.
type opResult struct {
	err error
}

func (p *Proc) queue(q QueueID) (*queue, error) {
	if q < 0 || int(q) >= len(p.queues) {
		return nil, fmt.Errorf("%w: queue %d out of range [0,%d)", ErrInvalid, q, len(p.queues))
	}
	return p.queues[q], nil
}

// postQueued registers a queued operation and returns its token. The
// record comes from the queue's freelist when possible, keeping the hot
// post path allocation-free.
func (p *Proc) postQueued(kind uint8, rank Rank, q *queue) uint64 {
	tok := p.nextToken()
	q.mu.Lock()
	q.out++
	gen := q.gen
	var op *pendingOp
	if n := len(q.free); n > 0 {
		op = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		op = new(pendingOp)
	}
	q.mu.Unlock()
	*op = pendingOp{kind: kind, rank: rank, q: q, qgen: gen}
	p.pendMu.Lock()
	p.pending[tok] = op
	p.pendMu.Unlock()
	return tok
}

// postBlocking registers a blocking operation and returns its token and
// response channel.
func (p *Proc) postBlocking(kind uint8, rank Rank) (uint64, chan opResult) {
	tok := p.nextToken()
	resp := make(chan opResult, 1)
	p.pendMu.Lock()
	p.pending[tok] = &pendingOp{kind: kind, rank: rank, resp: resp}
	p.pendMu.Unlock()
	return tok, resp
}

// completeToken resolves the pending operation for tok with the given
// result. Called by the NIC. Unknown tokens (already purged) are ignored.
func (p *Proc) completeToken(tok uint64, res opResult) {
	p.pendMu.Lock()
	op, ok := p.pending[tok]
	if ok {
		delete(p.pending, tok)
	}
	p.pendMu.Unlock()
	if !ok {
		return
	}
	if op.resp != nil {
		op.resp <- res
		return
	}
	q := op.q
	q.mu.Lock()
	if op.qgen == q.gen { // ignore completions for operations purged meanwhile
		q.out--
		if res.err != nil {
			q.errs = append(q.errs, opError{rank: op.rank, err: res.err})
		}
	}
	*op = pendingOp{} // drop the queue reference before recycling
	q.free = append(q.free, op)
	q.mu.Unlock()
	q.pulse.Broadcast()
}

// WaitQueue blocks until all operations posted on queue q have completed
// (gaspi_wait). If any completed with an error, the queue's accumulated
// errors are returned wrapped in ErrQueue and cleared; the state vector
// already marks the corrupt ranks.
func (p *Proc) WaitQueue(q QueueID, timeout time.Duration) error {
	p.checkAlive()
	qu, err := p.queue(q)
	if err != nil {
		return err
	}
	if !qu.drained() {
		// Bounded user-space poll before arming the (allocating) pulse
		// wait: at microsecond fabric latencies, completions land within
		// a few scheduler yields, so a steady-state flush stays
		// allocation-free — the completion polling a real GPI-2
		// gaspi_wait performs.
		if timeout != Test {
			for i, n := 0, p.cfg.SpinYields; i < n && !qu.drained(); i++ {
				runtime.Gosched()
			}
		}
		if !qu.drained() {
			if err := p.waitCond(&qu.pulse, timeout, qu.drained, nil); err != nil {
				return err
			}
		}
	}
	qu.mu.Lock()
	errs := qu.errs
	qu.errs = nil
	qu.mu.Unlock()
	if len(errs) > 0 {
		return fmt.Errorf("%w: %d failed operation(s), first to rank %d: %v",
			ErrQueue, len(errs), errs[0].rank, errs[0].err)
	}
	return nil
}

// QueueOutstanding reports the number of uncompleted operations on q.
func (p *Proc) QueueOutstanding(q QueueID) int {
	qu, err := p.queue(q)
	if err != nil {
		return 0
	}
	qu.mu.Lock()
	defer qu.mu.Unlock()
	return qu.out
}

// NumQueues returns the number of communication queues.
func (p *Proc) NumQueues() int { return len(p.queues) }

// PurgeQueues abandons every outstanding queued operation and clears all
// queue error state (gaspi_queue_purge, applied to all queues). The
// recovery path calls it to repair communication infrastructure after a
// failure: operations stuck towards partitioned or dead ranks would
// otherwise never complete. Late completions for purged tokens are ignored.
func (p *Proc) PurgeQueues() {
	p.checkAlive()
	p.pendMu.Lock()
	for tok, op := range p.pending {
		if op.q != nil {
			delete(p.pending, tok)
		}
	}
	p.pendMu.Unlock()
	for _, q := range p.queues {
		q.mu.Lock()
		q.out = 0
		q.gen++
		q.errs = nil
		q.mu.Unlock()
		q.pulse.Broadcast()
	}
}

package fabric

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Send when the sending endpoint itself has been
// closed (the local process is dead).
var ErrClosed = errors.New("fabric: endpoint closed")

// Sink is an endpoint's delivery handler: the simulated NIC. The shard
// that serves the endpoint calls it for every message addressed there,
// data plane and management plane alike, at the moment the message comes
// due and after the closed and partition checks — the way a real RDMA NIC
// lands a one-sided write in registered memory, or answers a ping,
// without involving the target CPU.
//
// Contract: the sink runs on the shard goroutine and must not block. An
// endpoint's messages are handled on that one goroutine in delivery
// order, so the per-(source, destination) FIFO order of the fabric is the
// order the sink sees, and a write is applied before any later message of
// its pair is handled. The sink posts its answers through reply, never
// through Endpoint.Send: a post from a delivery must not wait for ring
// space that only a shard frees.
type Sink func(m Message, reply Reply)

// Reply is the post path the fabric hands a Sink with each message.
type Reply struct{ e *Endpoint }

// Send posts m from the handling endpoint to the given destination on the
// data plane. Nothing is posted from a closed endpoint: a dead NIC sends
// no answers.
func (r Reply) Send(to Rank, m Message) {
	_ = r.e.send(to, m, false, true)
}

// Endpoint is one simulated process's attachment point to the fabric.
// Send posts messages asynchronously; the registered Sink handles what
// arrives.
type Endpoint struct {
	rank Rank
	t    *Transport
	done chan struct{}
	once sync.Once
	sink atomic.Value // Sink
}

// SetSink registers the endpoint's delivery handler. Register before
// traffic starts: a message that comes due with no handler registered is
// counted as delivered and discarded. Replacing a handler mid-flight is
// safe, but a message being handled may still reach the old one.
func (e *Endpoint) SetSink(s Sink) {
	e.sink.Store(s)
}

// Rank returns the endpoint's rank.
func (e *Endpoint) Rank() Rank { return e.rank }

// Closed reports whether the endpoint has been closed.
func (e *Endpoint) Closed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Close marks the endpoint dead. Subsequent messages addressed to it are
// NACKed back to their senders. Idempotent.
func (e *Endpoint) Close() {
	e.once.Do(func() { close(e.done) })
}

// Send posts a data-plane message to the given destination. The call returns
// immediately; delivery happens after the fabric latency. Failures (closed
// destination) surface asynchronously as a KindNack message delivered back to
// this endpoint, mirroring a reliable-connection error completion.
func (e *Endpoint) Send(to Rank, m Message) error {
	return e.send(to, m, false, false)
}

// SendMgmt posts a message on the management plane: fixed latency, immune to
// data-plane partitions. This models out-of-band control (the channel through
// which gaspi_proc_kill reaches an otherwise unreachable process).
func (e *Endpoint) SendMgmt(to Rank, m Message) error {
	return e.send(to, m, true, false)
}

// send posts m; fromDelivery marks a post made by a handler on a shard
// goroutine (see shard.enqueue).
func (e *Endpoint) send(to Rank, m Message, mgmt, fromDelivery bool) error {
	if e.Closed() {
		return ErrClosed
	}
	if to < 0 || int(to) >= len(e.t.eps) {
		return errors.New("fabric: invalid destination rank")
	}
	m.From = e.rank
	m.To = to
	e.t.post(m, mgmt, fromDelivery)
	return nil
}

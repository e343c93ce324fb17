// Package fabric simulates an RDMA-capable cluster interconnect inside a
// single process. Each simulated process owns an Endpoint; a message
// posted with Send is handed to the destination's handler (its Sink) after
// a configurable latency (base + per-byte + jitter), on the delivery shard
// that serves the destination, preserving FIFO order per (source,
// destination) pair — the ordering guarantee a reliable-connected RDMA
// queue pair provides, which the GASPI layer's write-then-notify semantics
// depend on.
//
// Failure semantics mirror a real fabric:
//
//   - Sending to a closed endpoint produces an asynchronous NACK back to the
//     sender (a broken reliable connection), never a synchronous error.
//   - A partitioned endpoint (or a downed link) silently swallows messages in
//     both directions: the sender observes only timeouts, exactly the
//     symptom the paper's fault detector must cope with.
//   - A management plane (SendMgmt) bypasses data-plane partitions, modelling
//     the out-of-band channel (IPMI/ssh) through which `gaspi_proc_kill` and
//     the experiment harness reach otherwise unreachable nodes.
package fabric

// Rank identifies an endpoint (one simulated process) within a Transport.
type Rank int32

// NilRank is the invalid rank sentinel.
const NilRank Rank = -1

// KindNack is the message kind reserved by the fabric for negative
// acknowledgments generated when a message reaches a closed endpoint. All
// other kind values belong to the layer above.
const KindNack uint8 = 0xFF

// NACK reason codes carried in Args[0] of a KindNack message.
const (
	// NackClosed reports that the destination endpoint was closed.
	NackClosed int64 = iota + 1
)

// Message is the unit of transfer. Kind, Token, Args and Payload are opaque
// to the fabric (except KindNack); the GASPI layer assigns their meaning.
// From is stamped by Send.
type Message struct {
	Kind    uint8
	From    Rank
	To      Rank
	Token   uint64
	Args    [4]int64
	Payload []byte
}

// wireSize approximates the on-wire size of the message for latency
// accounting: a fixed header plus the payload.
func (m *Message) wireSize() int { return 48 + len(m.Payload) }

package gaspi

import (
	"time"

	"repro/internal/fabric"
)

// ProcPing tests the availability of a particular rank — the GPI-2
// extension the paper adds for fault-tolerant applications
// (gaspi_proc_ping). A live, reachable rank answers from its NIC even while
// its application code computes. The result is:
//
//   - nil: the rank is alive and reachable;
//   - ErrConnection: the rank is dead (the fabric reported a broken
//     connection) — the state vector entry becomes StateCorrupt;
//   - ErrTimeout: no answer within the timeout (dead or unreachable; the
//     paper's detector treats this as a failure too).
func (p *Proc) ProcPing(rank Rank, timeout time.Duration) error {
	p.checkAlive()
	if err := p.validRank(rank); err != nil {
		return err
	}
	tok, resp := p.postBlocking(kPing, rank)
	m := fabric.Message{Kind: kPing, Token: tok}
	if err := p.ep.Send(rank, m); err != nil {
		p.completeToken(tok, opResult{err: ErrConnection})
	}
	return p.await(tok, resp, timeout, false)
}

// ProcKill forcibly terminates the given rank — the GPI-2 extension used by
// the paper's recovery phase to enforce the death of suspected processes
// (gaspi_proc_kill). This prevents transient failures and false positives
// from letting a zombie participate in the application after recovery.
//
// The kill travels on the management plane (out-of-band, like IPMI or a
// batch-system signal), so it reaches processes whose data-plane network has
// failed. It is fire-and-forget and idempotent: killing an already dead
// rank is a no-op.
func (p *Proc) ProcKill(rank Rank, _ time.Duration) error {
	p.checkAlive()
	if err := p.validRank(rank); err != nil {
		return err
	}
	if rank == p.rank {
		p.die(deathCause{killed: true, byRank: p.rank}, p.post)
		p.checkAlive() // panics
	}
	m := fabric.Message{Kind: kKill, Token: p.nextToken()}
	_ = p.ep.SendMgmt(rank, m) // NACK for an already dead target is ignored
	return nil
}

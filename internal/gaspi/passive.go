package gaspi

import (
	"time"

	"repro/internal/fabric"
)

// PassiveSend transfers data to the remote rank's passive queue
// (gaspi_passive_send). It blocks until the remote NIC accepts the message,
// the timeout expires, or the connection breaks. Passive communication is
// two-sided: the receiver must call PassiveReceive.
func (p *Proc) PassiveSend(rank Rank, data []byte, timeout time.Duration) error {
	p.checkAlive()
	if err := p.validRank(rank); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	tok, resp := p.postBlocking(kPassive, rank)
	m := fabric.Message{Kind: kPassive, Token: tok, Payload: buf}
	if err := p.ep.Send(rank, m); err != nil {
		p.completeToken(tok, opResult{err: ErrConnection})
	}
	return p.await(tok, resp, timeout, true)
}

// PassiveReceive blocks until a passive message arrives and returns its
// sender and payload (gaspi_passive_receive).
func (p *Proc) PassiveReceive(timeout time.Duration) (Rank, []byte, error) {
	p.checkAlive()
	timer, stop := deadline(timeout)
	defer stop()
	for {
		attn := p.attn.wake()
		select {
		case m := <-p.passiveCh:
			return m.from, m.data, nil
		default:
		}
		if timeout == Test {
			return NilRank, nil, ErrTimeout
		}
		if p.attn.pending() {
			return NilRank, nil, ErrAttention
		}
		select {
		case m := <-p.passiveCh:
			return m.from, m.data, nil
		case <-attn:
		case <-timer:
			return NilRank, nil, ErrTimeout
		case <-p.dead:
			p.checkAlive()
		}
	}
}

// NilRank is the invalid rank sentinel re-exported for convenience.
const NilRank = fabric.NilRank

// await waits for the completion of a blocking operation, translating
// timeouts and abandoning the token on timeout (a late completion for an
// abandoned token is dropped). attentive selects the calls the attention
// line may cut short; a ping must not be one — returning early would read
// as a suspicion.
func (p *Proc) await(tok uint64, resp chan opResult, timeout time.Duration, attentive bool) error {
	timer, stop := deadline(timeout)
	defer stop()
	expired := ErrTimeout
wait:
	for {
		var attn <-chan struct{}
		if attentive {
			attn = p.attn.wake()
			if p.attn.pending() {
				expired = ErrAttention
				break
			}
		}
		select {
		case r := <-resp:
			return r.err
		case <-attn:
		case <-timer:
			break wait
		case <-p.dead:
			p.checkAlive()
		}
	}
	p.abandonToken(tok)
	// The completion may have raced the timeout; prefer it.
	select {
	case r := <-resp:
		return r.err
	default:
		return expired
	}
}

func (p *Proc) abandonToken(tok uint64) {
	p.pendMu.Lock()
	delete(p.pending, tok)
	p.pendMu.Unlock()
}

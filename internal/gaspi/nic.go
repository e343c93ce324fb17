package gaspi

import (
	"repro/internal/fabric"
)

// nicLoop services the process's endpoint: it answers pings, takes passive
// sends, buffers group-commit rounds and routes completions —
// independently of what the application goroutine is doing (one-sided
// segment operations never reach it: fastSink applies them at delivery).
// This models the RDMA NIC + GPI-2 progress engine and is what makes
// a dedicated fault detector possible: a busy (or hung) application still
// answers pings as long as the process is alive.
func (p *Proc) nicLoop() {
	for {
		select {
		case m := <-p.ep.Recv():
			p.handleMessage(m)
		case <-p.ep.Done():
			return
		}
	}
}

// fastSink is the delivery-time handler registered with the fabric
// endpoint: the simulated RDMA unit. It consumes every one-sided segment
// operation at the moment the fabric delivers it — the payload is copied
// exactly once, from the (registered) source buffer straight into the
// destination segment's memory — so one-sided traffic never crosses the
// receive channel or waits for the NIC goroutine to be scheduled.
//
// Routing both segment-targeted kinds (writes and notifications) through
// the sink keeps their mutual execution order identical to their delivery
// order, which is what the GASPI write-before-notify guarantee rests on.
// Everything else (completions, passive, commit rounds, pings) flows
// through the NIC goroutine.
func (p *Proc) fastSink(m fabric.Message) bool {
	switch m.Kind {
	case kWrite, kNotify:
		p.applyOneSided(m)
		return true
	}
	return false
}

// applyOneSided executes a one-sided segment operation at the target and
// posts the completion back to the initiator. It runs only on the fabric's
// delivery shard (Launch registers fastSink before the NIC goroutine
// starts), so it must not block.
func (p *Proc) applyOneSided(m fabric.Message) {
	switch m.Kind {
	case kWrite:
		code := int64(remBadSegment)
		if s, err := p.segLookup(SegmentID(m.Args[0])); err == nil {
			code = s.applyRemoteWrite(m.Args[1], m.Payload)
			if code == remOK && m.Args[2] > 0 {
				code = s.setNotification(m.Args[2]-1, m.Args[3])
			}
		}
		if m.Token != 0 {
			// Token 0 is a fire-and-forget post (collective round data):
			// the sender tracks no completion for it.
			p.reply(m.From, fabric.Message{Kind: kWriteAck, Token: m.Token, Args: [4]int64{code}})
		}

	case kNotify:
		code := int64(remBadSegment)
		if s, err := p.segLookup(SegmentID(m.Args[0])); err == nil {
			code = s.setNotification(m.Args[2]-1, m.Args[3])
		}
		if m.Token != 0 {
			// Token 0 is a fire-and-forget post (collective round
			// notifications): the sender tracks no completion for it.
			p.reply(m.From, fabric.Message{Kind: kWriteAck, Token: m.Token, Args: [4]int64{code}})
		}
	}
}

func (p *Proc) handleMessage(m fabric.Message) {
	switch m.Kind {
	case kWriteAck:
		p.completeToken(m.Token, opResult{err: remoteErr(m.Args[0])})

	case kPassive:
		code := int64(remOK)
		select {
		case p.passiveCh <- passiveMsg{from: m.From, data: m.Payload}:
		default:
			code = remPassiveFull
		}
		p.reply(m.From, fabric.Message{Kind: kPassiveAck, Token: m.Token, Args: [4]int64{code}})

	case kPassiveAck:
		p.completeToken(m.Token, opResult{err: remoteErr(m.Args[0])})

	case kPing:
		p.reply(m.From, fabric.Message{Kind: kPingAck, Token: m.Token})

	case kProbe:
		// Collective liveness probe: needs no answer from a live process —
		// only a dead endpoint's NACK carries information.

	case kDeadGossip:
		// A peer's ring probe hit a dead endpoint and it is fanning the
		// news out. Don't trust the claim — verify it: probe the named rank
		// directly. A truly dead endpoint NACKs the probe, which marks it
		// corrupt here through the ordinary path; a live rank ignores the
		// probe and nothing changes, so a lying (or stale) gossiper is
		// harmless.
		if sus := Rank(m.Args[0]); sus >= 0 && int(sus) < p.n && sus != p.rank {
			p.reply(sus, fabric.Message{Kind: kProbe, From: p.rank, To: sus})
		}

	case kPingAck:
		p.completeToken(m.Token, opResult{})

	case kKill:
		p.die(deathCause{killed: true, byRank: m.From})

	case kColl:
		key := collKey{gid: GroupID(m.Args[0]), round: int32(m.Args[2]), from: m.From}
		p.collMu.Lock()
		p.collBuf[key] = m.Payload
		p.collMu.Unlock()
		p.collPulse.Broadcast()

	case fabric.KindNack:
		// A posted operation reached a dead process: the connection is
		// broken. Mark the state vector (the GASPI "error state vector is
		// set after every erroneous non-local operation") and fail the
		// pending operation, if any (collective sends carry no pending op;
		// their waiters time out instead).
		p.markCorrupt(m.From)
		p.completeToken(m.Token, opResult{err: ErrConnection})
	}
}

// reply sends a NIC-generated response; failures (own endpoint closed) are
// dropped, matching hardware behaviour.
func (p *Proc) reply(to Rank, m fabric.Message) {
	_ = p.ep.Send(to, m)
}

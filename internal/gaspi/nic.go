package gaspi

import (
	"repro/internal/fabric"
)

// nic is the process's NIC: the delivery handler Launch registers with the
// fabric endpoint. The fabric shard serving the endpoint calls it for
// every message the moment it comes due, so it must not block, and none of
// its cases does. It applies one-sided segment operations with a single
// copy, from the (registered) source buffer straight into the destination
// segment's memory; it answers pings, takes passive sends, buffers
// group-commit rounds and routes completions — independently of what the
// application goroutine is doing. This models the RDMA NIC + GPI-2
// progress engine and is what makes a dedicated fault detector possible: a
// busy (or hung) application still answers pings as long as the process is
// alive.
//
// Every message of the process runs through here in delivery order, so the
// per-pair FIFO order of the fabric is the order of execution: a write is
// in place before the notification, completion or commit round posted
// after it is handled — the GASPI write-before-notify guarantee. Answers
// go out through reply, the fabric's post path for deliveries.
func (p *Proc) nic(m fabric.Message, reply fabric.Reply) {
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
			reply.Send(m.From, fabric.Message{Kind: kWriteAck, Token: m.Token, Args: [4]int64{code}})
		}

	case kNotify:
		code := int64(remBadSegment)
		if s, err := p.segLookup(SegmentID(m.Args[0])); err == nil {
			code = s.setNotification(m.Args[2]-1, m.Args[3])
		}
		if m.Token != 0 {
			// Token 0 is a fire-and-forget post (collective round
			// notifications): the sender tracks no completion for it.
			reply.Send(m.From, fabric.Message{Kind: kWriteAck, Token: m.Token, Args: [4]int64{code}})
		}

	case kWriteAck, kPassiveAck, kPingAck:
		// A ping ack carries no code: Args[0] is remOK.
		p.completeToken(m.Token, opResult{err: remoteErr(m.Args[0])})

	case kPassive:
		code := int64(remOK)
		select {
		case p.passiveCh <- passiveMsg{from: m.From, data: m.Payload}:
		default:
			code = remPassiveFull
		}
		reply.Send(m.From, fabric.Message{Kind: kPassiveAck, Token: m.Token, Args: [4]int64{code}})

	case kPing:
		reply.Send(m.From, fabric.Message{Kind: kPingAck, Token: m.Token})

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
			reply.Send(sus, fabric.Message{Kind: kProbe})
		}

	case kKill:
		// This runs on the shard goroutine: the resets take the delivery
		// post path, which spills on a full ring instead of waiting.
		p.die(deathCause{killed: true, byRank: m.From}, reply.Send)

	case kReset:
		// A peer died and its connection reset arrived: the same evidence
		// as a NACK from it, only without waiting for a post to bounce.
		if int(m.From) < len(p.resetSeen) {
			p.resetSeen[m.From].Store(true)
		}
		p.markCorrupt(m.From)

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
		// their waiters time out instead). A NACKed answer carries the
		// dead asker's token, which names no operation of this process.
		p.markCorrupt(m.From)
		switch uint8(m.Args[1]) {
		case kWriteAck, kPassiveAck, kPingAck:
		default:
			p.completeToken(m.Token, opResult{err: ErrConnection})
		}
	}
}

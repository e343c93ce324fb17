package gaspi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
)

// Proc is one GASPI process: the handle through which application code
// issues every GASPI call. A Proc is created by Launch and passed to the
// process main function; it must only be used from that process's
// goroutine(s).
type Proc struct {
	rank Rank
	n    int
	cfg  Config
	job  *Job
	ep   *fabric.Endpoint

	// registries
	mu     sync.Mutex
	segs   map[SegmentID]*segment
	groups map[GroupID]*group

	// queues and pending one-sided operations
	queues  []*queue
	pendMu  sync.Mutex
	pending map[uint64]*pendingOp
	token   atomic.Uint64

	// passive communication
	passiveCh chan passiveMsg

	// commit-handshake round buffers (filled by the NIC, two-sided path;
	// collRecv consumes each entry, GroupDelete purges an abandoned
	// commit's)
	collMu    sync.Mutex
	collBuf   map[collKey][]byte
	collPulse pulse

	// viewVersion is the membership view version this process has observed
	// (the latest worker-failure notice epoch). Groups committed before the
	// current version are stale: collectives on them fail fast with
	// ErrStaleView so the caller reconciles against the new view instead of
	// parking in a round with a dead member.
	viewVersion atomic.Uint64

	// deadGossiped[r] latches once this process has broadcast a kDeadGossip
	// hint about rank r, bounding gossip to one fan-out per (observer, dead
	// rank) pair.
	deadGossiped []atomic.Bool
	// resetSeen[r] latches once rank r's connection reset has arrived
	// (kReset): its death was witnessed, not inferred from a NACK.
	resetSeen []atomic.Bool

	// error state vector
	statevec []atomic.Uint32
	// corruptPulse wakes collective waiters when a rank is marked corrupt,
	// so a NACK from a dead member interrupts a parked collective promptly
	// instead of letting it burn the full timeout.
	corruptPulse pulse

	// attn is the attention line (attention.go): raised by the NIC when a
	// notification lands in the watched slot, observed by armed waits.
	attn attention

	// death handling
	dead      chan struct{}
	deadOnce  sync.Once
	deathInfo atomic.Value // deathCause
}

type passiveMsg struct {
	from Rank
	data []byte
}

type collKey struct {
	gid   GroupID
	round int32
	from  Rank
}

// deathCause records why a process died.
type deathCause struct {
	killed   bool // kill -9 / gaspi_proc_kill / node failure
	exited   bool // application called Exit (exit(-1))
	code     int
	byRank   Rank
	external string
}

// killedPanic unwinds the application goroutine of a process that died
// abruptly; the Launch wrapper recovers it. Application code must not
// swallow it with a blanket recover.
type killedPanic struct{ cause deathCause }

// Rank returns this process's GASPI rank (gaspi_proc_rank).
func (p *Proc) Rank() Rank { return p.rank }

// NumProcs returns the total number of ranks (gaspi_proc_num).
func (p *Proc) NumProcs() int { return p.n }

// Config returns the launch configuration.
func (p *Proc) Config() Config { return p.cfg }

// Dead returns a channel closed when this process dies (killed or exited).
func (p *Proc) Dead() <-chan struct{} { return p.dead }

// Alive reports whether the process is still running.
func (p *Proc) Alive() bool {
	select {
	case <-p.dead:
		return false
	default:
		return true
	}
}

// Exit terminates this process abruptly with the given code, without any
// notification to other ranks — the paper's `exit(-1)` fail-stop failure
// injection. It never returns.
func (p *Proc) Exit(code int) {
	c := deathCause{exited: true, code: code, byRank: p.rank}
	p.die(c, p.post)
	panic(killedPanic{cause: c})
}

// die transitions the process to the dead state: the endpoint closes (so
// peers start receiving NACKs), and any blocked GASPI call unwinds.
//
// A process death on a node that stays up — kill -9 (Job.KillProc), exit,
// a peer's ProcKill — is witnessed: before the endpoint closes, reset
// posts a kReset to every other rank, the connection reset a real peer
// sees when the operating system tears down a dead process's connections.
// Each peer marks the rank corrupt on arrival, so a wait whose data
// source it is fails at once instead of probing for it. The reset rides
// the data plane, so a cut link or a partition swallows it like any post.
// A death nothing witnesses — a lost node (Job.Kill), the job's teardown —
// passes a nil reset. The witness only marks the state vector, like a
// NACK; the fault detector's ping still decides who is dead.
func (p *Proc) die(c deathCause, reset func(to Rank, m fabric.Message)) {
	p.deadOnce.Do(func() {
		p.deathInfo.Store(c)
		close(p.dead)
		if reset != nil {
			for r := range p.n {
				if Rank(r) != p.rank {
					reset(Rank(r), fabric.Message{Kind: kReset})
				}
			}
		}
		p.ep.Close()
	})
}

// post is the death path's reset poster off the delivery goroutines: an
// ordinary send, which may wait for ring space.
func (p *Proc) post(to Rank, m fabric.Message) { _ = p.ep.Send(to, m) }

// checkAlive panics with killedPanic if the process has died. Every GASPI
// entry point calls it so that a killed process stops at its next
// communication event, like a real fail-stop failure.
func (p *Proc) checkAlive() {
	select {
	case <-p.dead:
		c, _ := p.deathInfo.Load().(deathCause)
		panic(killedPanic{cause: c})
	default:
	}
}

// nextToken allocates a correlation token for a one-sided operation.
func (p *Proc) nextToken() uint64 { return p.token.Add(1) }

// Protect runs fn and absorbs the process-death unwinding, reporting
// whether the process died. The main process goroutine is protected by the
// runtime automatically; auxiliary goroutines that issue GASPI calls (the
// threaded fault detector, background probers) must wrap their bodies in
// Protect so a killed process does not crash the whole simulation.
func Protect(fn func()) (died bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); ok {
				died = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// DefaultSpinYields is the default budget of the cooperative poll
// (runtime.Gosched loop) the data-plane hot waits (WaitQueue,
// NotifyWaitsome) perform before falling back to a channel-based pulse
// wait. Polling mirrors the user-space completion/notification spinning
// of a real GPI-2 process; the default is deliberately small because
// every waiter in the job spins it — idle spares parked on the board, the
// detector's interruptible sleeps, retry loops — and on shared-CPU hosts
// (especially under the race detector) aggressive spinning starves the
// fault detector's timers. Dedicated data-plane runs raise
// Config.SpinYields (the hot-path benchmarks use 1 << 16, so that their
// hot waits never park — a park allocates a pulse channel, which their
// 0 allocs/op gates would count — even under the race detector), the way
// a real GPI-2 deployment tunes its busy-poll budget to the host.
const DefaultSpinYields = 16

// deadline returns a timer channel for the given timeout. For Block the
// channel is nil (never fires). The returned stop function must be called
// to release the timer.
func deadline(timeout time.Duration) (<-chan time.Time, func()) {
	if timeout == Block {
		return nil, func() {}
	}
	t := time.NewTimer(timeout)
	return t.C, func() { t.Stop() }
}

// waitCond blocks until cond returns true, the timeout expires (ErrTimeout),
// the armed attention line is raised (ErrAttention, an early ErrTimeout),
// one of the ranks in src is marked corrupt (ErrConnection: the wait's
// data source is dead; nil src names none) or the process dies (panics).
// pl must be broadcast whenever cond may have become true. cond must be
// safe to call from this goroutine (it takes its own locks); it is checked
// before the sources, so what already arrived wins over a dead source.
func (p *Proc) waitCond(pl *pulse, timeout time.Duration, cond func() bool, src []Rank) error {
	timer, stop := deadline(timeout)
	defer stop()
	var corrupt <-chan struct{}
	for {
		ch := pl.Chan()
		attn := p.attn.wake()
		if len(src) > 0 {
			corrupt = p.corruptPulse.Chan()
		}
		if cond() {
			return nil
		}
		if err := p.checkSources(src); err != nil {
			return err
		}
		if timeout == Test {
			return ErrTimeout
		}
		if p.attn.pending() {
			return ErrAttention
		}
		select {
		case <-ch:
		case <-attn:
		case <-corrupt:
		case <-timer:
			return ErrTimeout
		case <-p.dead:
			p.checkAlive()
		}
	}
}

// checkSources fails with ErrConnection when one of the ranks in src is
// marked corrupt.
func (p *Proc) checkSources(src []Rank) error {
	for _, r := range src {
		if p.State(r) == StateCorrupt {
			return p.lostErr(ErrConnection, r, "notification source")
		}
	}
	return nil
}

// markCorrupt flips the state vector entry for rank r to StateCorrupt and
// wakes collective waiters: a collective with a conclusively dead member
// can never complete, so parked waiters re-check the member list and fail
// fast with ErrConnBroken.
func (p *Proc) markCorrupt(r Rank) {
	if r >= 0 && int(r) < len(p.statevec) {
		p.statevec[r].Store(uint32(StateCorrupt))
		p.corruptPulse.Broadcast()
		p.collPulse.Broadcast()
	}
}

// SetViewVersion publishes a new membership view version (monotone: lower
// versions are ignored). The ft layer calls it when a worker-failure notice
// arrives; from then on collectives on groups committed under an older view
// fail fast with ErrStaleView until the group is rebuilt.
func (p *Proc) SetViewVersion(v uint64) {
	for {
		cur := p.viewVersion.Load()
		if v <= cur || p.viewVersion.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ViewVersion returns the membership view version this process has observed.
func (p *Proc) ViewVersion() uint64 { return p.viewVersion.Load() }

// State returns the error state vector entry for rank r
// (gaspi_state_vec_get). A rank becomes StateCorrupt after an erroneous
// non-local operation targeting it.
func (p *Proc) State(r Rank) ProcState {
	if r < 0 || int(r) >= len(p.statevec) {
		return StateCorrupt
	}
	return ProcState(p.statevec[r].Load())
}

// StateVec returns a snapshot of the whole error state vector.
func (p *Proc) StateVec() []ProcState {
	out := make([]ProcState, len(p.statevec))
	for i := range out {
		out[i] = ProcState(p.statevec[i].Load())
	}
	return out
}

func (p *Proc) String() string { return fmt.Sprintf("gaspi.Proc(rank=%d)", p.rank) }

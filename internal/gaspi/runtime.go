package gaspi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
)

// Fixed per-process resources.
const (
	numQueues    = 8    // communication queues
	passiveDepth = 1024 // passive receive buffer depth
	maxSegments  = 32   // application segments
)

// Config parameterizes a GASPI job.
type Config struct {
	// Procs is the number of ranks.
	Procs int
	// NotifySlots is the number of notification slots per segment
	// (default max(512, 2·Procs): the parity-buffered halo scheme of an
	// spMVM over every process needs two per worker).
	NotifySlots int
	// Latency is the fabric latency model.
	Latency fabric.LatencyModel
	// Seed seeds the fabric's deterministic jitter streams.
	Seed int64
	// FabricShards is the number of fabric delivery shards (default 0:
	// min(GOMAXPROCS, Procs)). Setting it to Procs reproduces the
	// historical one-pump-per-rank layout, which the scaling benchmarks
	// use as their baseline arm.
	FabricShards int
	// SpinYields is the user-space poll budget of the data-plane hot
	// waits before they park (default DefaultSpinYields; see its doc for
	// the tuning trade-off).
	SpinYields int
}

func (c Config) withDefaults() Config {
	if c.NotifySlots <= 0 {
		c.NotifySlots = max(512, 2*c.Procs)
	}
	if c.SpinYields <= 0 {
		c.SpinYields = DefaultSpinYields
	}
	return c
}

// DeathInfo describes how a process died, when it did not return normally.
type DeathInfo struct {
	Killed bool // gaspi_proc_kill, Job.Kill, or node failure
	Exited bool // the process called Exit (e.g. exit(-1))
	Code   int  // Exit code, when Exited
	ByRank Rank // killer rank, when killed through ProcKill
	Reason string
}

// Result is the outcome of one rank's main function.
type Result struct {
	Rank  Rank
	Err   error
	Death *DeathInfo // non-nil when the process died instead of returning
}

// Job is a running GASPI application: one goroutine per rank, connected by
// a simulated fabric whose delivery shards run every rank's NIC.
type Job struct {
	cfg     Config
	tr      *fabric.Transport
	procs   []*Proc
	wg      sync.WaitGroup
	resMu   sync.Mutex
	results []Result
	closed  atomic.Bool
}

// Launch starts a GASPI job: cfg.Procs processes all running main.
// The returned Job is used to wait for completion and to inject faults.
func Launch(cfg Config, main func(*Proc) error) *Job {
	cfg = cfg.withDefaults()
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("gaspi: invalid proc count %d", cfg.Procs))
	}
	tr := fabric.New(fabric.Config{
		N:       cfg.Procs,
		Latency: cfg.Latency,
		Seed:    cfg.Seed,
		Shards:  cfg.FabricShards,
	})
	job := &Job{
		cfg:     cfg,
		tr:      tr,
		procs:   make([]*Proc, cfg.Procs),
		results: make([]Result, cfg.Procs),
	}
	allRanks := make([]Rank, cfg.Procs)
	for i := range allRanks {
		allRanks[i] = Rank(i)
	}
	for i := 0; i < cfg.Procs; i++ {
		p := &Proc{
			rank:         Rank(i),
			n:            cfg.Procs,
			cfg:          cfg,
			job:          job,
			ep:           tr.Endpoint(Rank(i)),
			segs:         make(map[SegmentID]*segment),
			groups:       make(map[GroupID]*group),
			queues:       make([]*queue, numQueues),
			pending:      make(map[uint64]*pendingOp),
			passiveCh:    make(chan passiveMsg, passiveDepth),
			collBuf:      make(map[collKey][]byte),
			statevec:     make([]atomic.Uint32, cfg.Procs),
			deadGossiped: make([]atomic.Bool, cfg.Procs),
			resetSeen:    make([]atomic.Bool, cfg.Procs),
			dead:         make(chan struct{}),
		}
		for q := range p.queues {
			p.queues[q] = &queue{id: QueueID(q)}
		}
		// GASPI_GROUP_ALL is predefined and committed at init.
		p.groups[GroupAll] = &group{
			id:        GroupAll,
			members:   allRanks,
			myIdx:     i,
			committed: true,
			seq:       1,
		}
		// The all-group's collective segment exists before any application
		// code runs, so no rank can observe a peer without it.
		p.collSetup(p.groups[GroupAll])
		job.procs[i] = p
		job.results[i] = Result{Rank: Rank(i)}
		// The NIC: the fabric shard hands it every message the instant
		// it comes due (nic.go).
		p.ep.SetSink(p.nic)
	}
	for _, p := range job.procs {
		job.wg.Add(1)
		go job.runMain(p, main)
	}
	return job
}

func (j *Job) runMain(p *Proc, main func(*Proc) error) {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if kp, ok := r.(killedPanic); ok {
				j.record(p.rank, Result{
					Rank: p.rank,
					Death: &DeathInfo{
						Killed: kp.cause.killed,
						Exited: kp.cause.exited,
						Code:   kp.cause.code,
						ByRank: kp.cause.byRank,
						Reason: kp.cause.external,
					},
				})
				return
			}
			j.record(p.rank, Result{
				Rank: p.rank,
				Err:  fmt.Errorf("rank %d panicked: %v\n%s", p.rank, r, debug.Stack()),
			})
			return
		}
	}()
	err := main(p)
	j.record(p.rank, Result{Rank: p.rank, Err: err})
	// The process "lingers": its NIC keeps answering pings and remote
	// operations after main returns, until the job is shut down — just as a
	// real GPI-2 process stays alive between gaspi_proc_term and job end.
}

func (j *Job) record(r Rank, res Result) {
	j.resMu.Lock()
	j.results[r] = res
	j.resMu.Unlock()
}

// Proc returns the process handle for a rank. Intended for fault-injection
// and inspection by the harness; application code receives its own handle.
func (j *Job) Proc(r Rank) *Proc { return j.procs[r] }

// NumProcs returns the number of ranks in the job.
func (j *Job) NumProcs() int { return len(j.procs) }

// Transport exposes the underlying fabric (for partition injection and
// statistics).
func (j *Job) Transport() *fabric.Transport { return j.tr }

// Kill terminates a rank abruptly and unwitnessed: the process's endpoint
// closes and its goroutine unwinds at its next GASPI call, but nothing
// tells its peers — the share of one process in a node failure
// (cluster.KillNode), where no operating system is left to reset its
// connections. The peers learn of the death from NACKs, probes and the FD.
func (j *Job) Kill(r Rank, reason string) {
	j.procs[r].die(deathCause{killed: true, byRank: NilRank, external: reason}, nil)
}

// KillProc terminates a rank like `kill -9 <pid>` on a node that stays up:
// Kill, but witnessed — the dying process's connections reset, and every
// peer marks it corrupt at once (see Proc.die).
func (j *Job) KillProc(r Rank, reason string) {
	p := j.procs[r]
	p.die(deathCause{killed: true, byRank: NilRank, external: reason}, p.post)
}

// Partition disconnects (down=true) or heals a rank's data-plane network.
func (j *Job) Partition(r Rank, down bool) {
	j.tr.SetPartitioned(r, down)
}

// Wait blocks until every rank's main function has finished (returned,
// exited or been killed) and returns the per-rank results.
func (j *Job) Wait() []Result {
	j.wg.Wait()
	j.resMu.Lock()
	defer j.resMu.Unlock()
	out := make([]Result, len(j.results))
	copy(out, j.results)
	return out
}

// WaitTimeout is Wait with a deadline; it returns false on timeout.
func (j *Job) WaitTimeout(d time.Duration) ([]Result, bool) {
	done := make(chan struct{})
	go func() {
		j.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return j.Wait(), true
	case <-time.After(d):
		return nil, false
	}
}

// Close tears down the fabric. Processes still running will die at their
// next GASPI call.
func (j *Job) Close() {
	if j.closed.CompareAndSwap(false, true) {
		for _, p := range j.procs {
			p.die(deathCause{killed: true, external: "job closed"}, nil)
		}
		j.tr.Close()
	}
}

// Shutdown kills all processes, waits for their goroutines to unwind and
// tears down the fabric — the hard-stop teardown used by tests.
func (j *Job) Shutdown() []Result {
	for _, p := range j.procs {
		p.die(deathCause{killed: true, external: "shutdown"}, nil)
	}
	res := j.Wait()
	j.Close()
	return res
}

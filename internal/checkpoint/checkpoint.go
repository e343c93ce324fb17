// Package checkpoint implements the paper's neighbor node-level
// checkpoint/restart library for GASPI applications (Section IV.C,
// Figure 2):
//
//   - The application writes a checkpoint to its node-local store and
//     signals the library thread (the writer goroutine), which
//     asynchronously copies it to the neighboring node — so a full node
//     failure cannot destroy the only copy. The copy goes through the
//     library's Transport; under the framework that is the GASPI checkpoint
//     stream (ft.CPStream), whose receiver commits it with StoreReplica.
//   - Optionally, every k-th checkpoint is also written to the (slow,
//     shared) parallel file system for a higher degree of reliability.
//   - The library is fault aware: after a failure recovery the application
//     hands it the surviving worker nodes and the neighbor ring is
//     recomputed (the paper: "the C/R library refreshes its list of
//     neighboring processes based on the failed processes list provided by
//     the application").
//
// Checkpoints are identified by (name, logical rank, version), CRC-checked,
// and versioned; Fetch transparently falls back from the local copy to any
// surviving replica (neighbor copy or PFS), which is exactly what a rescue
// process restoring a failed process's state needs.
//
// One writer goroutine per Library flushes a double buffer: Write encodes
// the frame into a free half and hands it over, and the writer replicates
// it — neighbor push through the one Transport, optional PFS copy, pruning
// — while the application computes. The second half is created only when
// a Write finds the first in flight, and Write blocks for a free half only
// when both are (the writer is two checkpoints behind). The commit
// discipline (CheckpointMode) only says where the local commit runs:
//
//   - Sync (the paper's library): inside Write, which returns its error.
//   - Async (the follow-up work's asynchronous variant): on the writer,
//     ahead of replication, so the whole checkpoint overlaps computation.
//
// Every generation, stored or mirrored, is one self-contained frame
// (frame.go): a header naming the generation, the whole payload and a CRC.
//
// The store is as deep as a recovery reaches (prune): once a generation has
// sealed locally and on the neighbor, everything behind the two generations
// before it is released on both, so a node holds three generations of a
// family however long the job runs.
//
// Every committed replica is accompanied by a seal object written strictly
// after its data, echoing the frame's version. FindLatest counts only
// sealed replicas, so a commit torn by a failure (a data object without its
// seal) is never selected for restore; a push torn in flight never reaches
// the neighbor's store at all, since the receiver commits only complete
// frames. A restore reads one sealed replica whole, in tier order, and
// CRC-verifies it before use (restore.go).
package checkpoint

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// Errors returned by the library.
var (
	// ErrNoCheckpoint reports that no (intact) checkpoint exists.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
	// ErrCorrupt reports a checkpoint failing its integrity check.
	ErrCorrupt = errors.New("checkpoint: corrupt data")
	// ErrStopped reports use of a stopped library.
	ErrStopped = errors.New("checkpoint: library stopped")
)

// Mode selects the checkpoint placement strategy (the paper's §IV.E names
// the two kinds: "a global PFS-level checkpoint, and a neighbor level
// checkpoint").
type Mode int

// Checkpoint modes.
const (
	// ModeNeighbor is the paper's library: synchronous node-local write,
	// asynchronous copy to the neighbor node (plus optional periodic PFS
	// copies via PFSEvery).
	ModeNeighbor Mode = iota
	// ModeGlobalPFS is the classic expensive baseline the paper's library
	// replaces: every checkpoint is written synchronously to the shared
	// parallel file system. Used by the checkpoint-strategy ablation.
	ModeGlobalPFS
)

// CheckpointMode selects the commit discipline of Write.
type CheckpointMode int

// Commit disciplines.
const (
	// Sync commits the node-local copy inside Write (the application pays
	// the local storage cost every checkpoint epoch); the writer goroutine
	// replicates it in the background. This is the paper's library.
	Sync CheckpointMode = iota
	// Async leaves the local commit to the writer goroutine too, ahead of
	// the replication, so Write returns after the frame encode.
	Async
)

// Config parameterizes a Library.
type Config struct {
	// Mode selects neighbor-level (default) or global PFS checkpointing.
	Mode Mode
	// PFSEvery writes every k-th version also to the PFS (0 = never;
	// ModeNeighbor only).
	PFSEvery int
	// CheckpointMode selects where the local commit runs: inside Write
	// (Sync, the default) or on the writer goroutine (Async).
	CheckpointMode CheckpointMode
	// FullEvery is inert: every generation is a self-contained frame.
	//
	// Deprecated: the delta chain it sized is gone; the field is kept only so
	// existing configurations compile, and nothing reads it.
	FullEvery int
}

// Library is one process's handle to the C/R machinery. Its writer
// goroutine (run) is the paper's "library thread".
type Library struct {
	cl        *cluster.Cluster
	nodeID    int
	cfg       Config
	transport Transport // nil: no neighbor copies (each is an error on Err)

	mu        sync.Mutex
	neighbor  int // neighboring node id; -1 when none
	flushHook func(logical int, version int64)

	// The writer's double buffer: free is the pool of the idle halves, work
	// carries staged halves to the writer goroutine, and halves counts the
	// halves that exist — one until a Write finds it in flight (acquire).
	free   chan *cpBuffer
	halves atomic.Int32
	work   chan *cpBuffer
	wg     sync.WaitGroup  // staged halves not yet flushed
	done   chan struct{}   // closed by Stop
	abort  <-chan struct{} // closed when the owning process dies

	// sendMu makes the work handoff atomic with shutdown: Stop closes
	// done while holding it, so a staged half either lands before the
	// close (the final drain flushes it) or the Write is refused — a half
	// sent after the drain would leak the WaitGroup count and silently
	// drop the checkpoint. The send under it never blocks: work holds both
	// halves.
	sendMu sync.Mutex

	statsMu sync.Mutex // guards stats, the writer's counters
	stats   WriterStats

	// readHook, when set (tests only), runs before FetchFrom reads a sealed
	// replica; the restore fallback test kills a source node under it.
	readHook func(nodeID int)
	// releaseHook, when set (tests only), runs inside prune once a node's
	// released generations have lost their seals and before the data
	// objects (dataKeys) go.
	releaseHook func(nodeID int, dataKeys []string)
	// stallHook, when set (tests only), runs when Write finds both buffer
	// halves in flight, before it waits for one.
	stallHook func()

	errMu    sync.Mutex
	lastErr  error
	errCount int64
}

// Transport replicates a checkpoint frame to a neighbor node: the one
// replication path of both commit disciplines. The framework's is the GASPI
// checkpoint stream, whose receiver commits each complete frame with
// StoreReplica. The contract that makes torn-push detection work: the
// destination commits the data object and then its seal, and only for a
// complete frame, so an aborted push leaves nothing FindLatest would pick.
// Push may keep reading blob after it returned an error (a zero-copy post
// still in flight); the caller must not reuse the buffer then.
type Transport interface {
	Push(nbNode int, key string, blob []byte) error
}

// errNoTransport is recorded for every neighbor copy of a library built
// without a transport.
var errNoTransport = errors.New("checkpoint: no replication transport")

// SetFlushHook installs an observer called when the writer goroutine
// begins a checkpoint's flush — after Write's local commit under Sync,
// ahead of the writer's own under Async. The scenario engine uses it
// for during-checkpoint-flush fault triggers: the fault then races the
// very replication the hook announced.
func (l *Library) SetFlushHook(fn func(logical int, version int64)) {
	l.mu.Lock()
	l.flushHook = fn
	l.mu.Unlock()
}

// noteFlush fires the flush hook, if any.
func (l *Library) noteFlush(logical int, version int64) {
	l.mu.Lock()
	fn := l.flushHook
	l.mu.Unlock()
	if fn != nil {
		fn(logical, version)
	}
}

// BindAbort ties the library to a process-death signal: once ch closes, a
// flush not yet begun is skipped and nothing more is released; a push in
// flight is the transport's to cut short.
func (l *Library) BindAbort(ch <-chan struct{}) {
	l.mu.Lock()
	l.abort = ch
	l.mu.Unlock()
}

func (l *Library) aborted() bool {
	l.mu.Lock()
	ch := l.abort
	l.mu.Unlock()
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// New creates a library for the process on the given node and starts its
// writer goroutine. Every neighbor copy goes through tr; a library without
// one (nil) can read and write locally, and records an error on Err for
// each copy it cannot make. Call SetWorkerNodes before the first Write so a
// neighbor is known.
func New(cl *cluster.Cluster, nodeID int, cfg Config, tr Transport) *Library {
	l := &Library{
		cl:        cl,
		nodeID:    nodeID,
		cfg:       cfg,
		transport: tr,
		neighbor:  -1,
		free:      make(chan *cpBuffer, 2),
		work:      make(chan *cpBuffer, 2),
		done:      make(chan struct{}),
	}
	l.free <- &cpBuffer{}
	l.halves.Store(1)
	go l.run()
	return l
}

// SetWorkerNodes informs the library of the current set of worker nodes;
// the neighbor is the next node in the sorted ring. This is the fault-aware
// refresh hook called after every recovery.
func (l *Library) SetWorkerNodes(nodes []int) {
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	nb := -1
	for _, n := range sorted { // first node above mine
		if n > l.nodeID {
			nb = n
			break
		}
	}
	if nb == -1 && len(sorted) > 0 && sorted[0] != l.nodeID {
		nb = sorted[0] // wrap around
	}
	if nb == l.nodeID {
		nb = -1
	}
	l.mu.Lock()
	l.neighbor = nb
	l.mu.Unlock()
}

// Neighbor returns the current neighbor node (-1 when none).
func (l *Library) Neighbor() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.neighbor
}

// Key builds the storage key of a checkpoint.
func Key(name string, logical int, version int64) string {
	return fmt.Sprintf("cp/%s/%d/v%d", name, logical, version)
}

// sealSuffix marks the commit object written strictly after a checkpoint's
// data; a data object without its seal in the same store is incomplete.
const sealSuffix = "/ok"

// SealKey returns the key of the seal object for a checkpoint key.
func SealKey(key string) string { return key + sealSuffix }

// parseKey inverts Key; ok is false for foreign keys.
func parseKey(key string) (name string, logical int, version int64, ok bool) {
	parts := strings.Split(key, "/")
	if len(parts) != 4 || parts[0] != "cp" || !strings.HasPrefix(parts[3], "v") {
		return "", 0, 0, false
	}
	lr, err1 := strconv.Atoi(parts[2])
	v, err2 := strconv.ParseInt(parts[3][1:], 10, 64)
	if err1 != nil || err2 != nil {
		return "", 0, 0, false
	}
	return parts[1], lr, v, true
}

// Write checkpoints payload as (name, logical, version). It encodes the
// frame into a free half of the writer's double buffer, waiting only while
// both halves are in flight, and hands it to the writer goroutine, which
// replicates it to the neighbor node (and, every PFSEvery-th version, to
// the PFS) in the background.
//
// Under Sync (the paper's library) Write runs the commit itself and
// returns its error: the node-local copy — the application-visible
// checkpoint cost — or in ModeGlobalPFS the whole checkpoint, synchronously
// to the shared file system (the classic global checkpoint whose cost
// motivates the paper's neighbor-level design), which leaves the writer
// nothing to do. Under Async the writer commits before it replicates.
func (l *Library) Write(name string, logical int, version int64, payload []byte) error {
	select {
	case <-l.done:
		return ErrStopped
	default:
	}
	b, err := l.acquire()
	if err != nil {
		return err
	}
	b.data = EncodeFrame(b.data, logical, version, payload)
	b.key, b.name, b.logical, b.version = Key(name, logical, version), name, logical, version
	b.committed = l.cfg.CheckpointMode == Sync
	if b.committed {
		if err := l.commit(b); err != nil || l.cfg.Mode == ModeGlobalPFS {
			l.free <- b
			return err
		}
	}
	return l.handoff(b)
}

// replicate is the post-local-commit sequence shared by both commit
// disciplines: neighbor push through the transport, optional PFS copy, and
// the retention rule. The neighbor push and the PFS copy run concurrently —
// they target independent storage tiers, and serializing them on the
// writer goroutine would make PFS-enabled configs pay the sum of the two
// flush latencies per version. Generations are released only behind one
// that sealed on the neighbor as well (or when there is no neighbor to seal
// on): under a persistently failing push nothing is released anywhere, so
// the neighbor keeps the only off-node copies. A dead process releases
// nothing. It reports false when the push failed, which may leave the
// transport reading blob.
func (l *Library) replicate(name, key string, logical int, version int64, blob []byte, toPFS bool) bool {
	nb := l.Neighbor()
	pushed := false
	var wg sync.WaitGroup
	if nb >= 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := errNoTransport
			if l.transport != nil {
				err = l.transport.Push(nb, key, blob)
			}
			if err != nil {
				l.setErr(fmt.Errorf("checkpoint: neighbor copy of %s to node %d: %w", key, nb, err))
			} else {
				pushed = true
			}
		}()
	}
	if toPFS {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.putPFS(key, blob, version); err != nil {
				l.setErr(err)
			}
		}()
	}
	wg.Wait()
	if (pushed || nb < 0) && !l.aborted() {
		l.prune(name, logical, version, nb)
	}
	return pushed || nb < 0
}

// putLocal commits data plus seal to the node-local store. The seal is a
// metadata put: it must land strictly after the data but rides the same
// commit, so it carries no second store round trip.
func (l *Library) putLocal(key string, blob []byte, version int64) error {
	if err := l.cl.Node(l.nodeID).Put(key, blob, l.storage()); err != nil {
		return fmt.Errorf("checkpoint: local write: %w", err)
	}
	if err := l.cl.Node(l.nodeID).PutMeta(SealKey(key), sealFor(version)); err != nil {
		return fmt.Errorf("checkpoint: local seal: %w", err)
	}
	return nil
}

// putPFS commits data plus seal to the parallel file system.
func (l *Library) putPFS(key string, blob []byte, version int64) error {
	if err := l.cl.PFS().Put(key, blob); err != nil {
		return fmt.Errorf("checkpoint: PFS write of %s: %w", key, err)
	}
	if err := l.cl.PFS().PutMeta(SealKey(key), sealFor(version)); err != nil {
		return fmt.Errorf("checkpoint: PFS seal of %s: %w", key, err)
	}
	return nil
}

// restorableLag is how many generations a member's newest sealed copy can
// trail the generation a peer just sealed: the writer's double buffer holds
// at most two unreplicated generations of a rank, under either commit
// discipline, in lockstep with its peers, and recovery's version agreement
// takes the group minimum.
const restorableLag = 2

// prune is the retention rule, run once generation sealed of (name, logical)
// is sealed on the local store and on the neighbor nb (-1: none): every
// generation older than the restorableLag+1 newest sealed ones up to sealed
// — whatever the group can agree on — is released from both stores.
// Generations are counted among the sealed ones in the local store, not by
// version number, and the anchor is the generation whose push just finished
// — not the newest local one, which under Sync is the next generation,
// committed by Write while this one was still in flight.
//
// On each store the released generations' seals are deleted before any of
// their data, so a concurrent seal scan never meets a sealed generation
// whose data is gone.
func (l *Library) prune(name string, logical int, sealed int64, nb int) {
	local := l.cl.Node(l.nodeID)
	var gens []int64
	for _, k := range local.Keys() {
		dataKey, isSeal := strings.CutSuffix(k, sealSuffix)
		if !isSeal {
			continue
		}
		kn, kl, kv, ok := parseKey(dataKey)
		if !ok || kn != name || kl != logical || kv > sealed {
			continue
		}
		if blob, ok := local.GetMeta(k); ok {
			if sv, ok := parseSeal(blob); ok && sv == kv {
				gens = append(gens, kv)
			}
		}
	}
	if len(gens) <= restorableLag {
		return // nothing behind the window yet
	}
	slices.Sort(gens)
	oldest := gens[len(gens)-1-restorableLag]
	for _, nodeID := range []int{l.nodeID, nb} {
		if nodeID < 0 {
			continue
		}
		node := l.cl.Node(nodeID)
		var data []string
		for _, k := range node.Keys() {
			dataKey, isSeal := strings.CutSuffix(k, sealSuffix)
			kn, kl, kv, ok := parseKey(dataKey)
			if !ok || kn != name || kl != logical || kv >= oldest {
				continue
			}
			if isSeal {
				node.Delete(k)
			} else {
				data = append(data, k)
			}
		}
		if h := l.releaseHook; h != nil {
			h(nodeID, data)
		}
		for _, k := range data {
			node.Delete(k)
		}
		if nodeID == l.nodeID {
			l.statsMu.Lock()
			l.stats.Released += int64(len(data))
			l.statsMu.Unlock()
		}
	}
}

// WaitIdle blocks until every staged flush has completed. Tests and
// orderly shutdown use it; the application itself never has to.
func (l *Library) WaitIdle() { l.wg.Wait() }

// Stop shuts the writer down after draining staged flushes. The close
// happens under sendMu so no handoff can slip in after the drain.
func (l *Library) Stop() {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	select {
	case <-l.done:
	default:
		close(l.done)
	}
}

// Err returns the last background-copy error, if any. Background errors
// are expected DURING failures (pushes racing a dying neighbor) and are
// tolerated — recovery agrees on an older sealed version — but a non-zero
// ErrCount on a failure-free run means replicas were silently lost; the
// framework surfaces the count as the "core.cp_flush_errors" trace
// counter and the experiments assert it is zero on clean runs.
func (l *Library) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.lastErr
}

// ErrCount returns how many background-copy errors were recorded.
func (l *Library) ErrCount() int64 {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.errCount
}

func (l *Library) setErr(err error) {
	l.errMu.Lock()
	l.lastErr = err
	l.errCount++
	l.errMu.Unlock()
}

// RestoreSource classifies where a restored checkpoint replica was found
// — the storage-tier fallback order FetchFrom walks.
type RestoreSource int

// Restore sources, cheapest tier first: the order a fetch prefers them in.
const (
	// RestoreNone: no intact replica anywhere.
	RestoreNone RestoreSource = iota
	// RestoreLocal: this process's own node-local store.
	RestoreLocal
	// RestoreNeighbor: the current ring neighbor's node store (where this
	// node's replicas are pushed — and where a failed predecessor's
	// replica survives its node's death).
	RestoreNeighbor
	// RestoreRemote: some other alive node's store (e.g. the failed
	// process's own node, still alive after a mere process death).
	RestoreRemote
	// RestorePFS: the parallel file system (survives any node failure).
	RestorePFS
)

func (s RestoreSource) String() string {
	switch s {
	case RestoreLocal:
		return "local"
	case RestoreNeighbor:
		return "neighbor"
	case RestoreRemote:
		return "remote"
	case RestorePFS:
		return "pfs"
	default:
		return "none"
	}
}

// Fetch retrieves and verifies checkpoint (name, logical, version),
// falling back local → neighbor → other alive nodes → PFS. Callers that
// trace restore provenance must use FetchFrom instead — Fetch discards
// the source classification.
func (l *Library) Fetch(name string, logical int, version int64) ([]byte, error) {
	payload, _, err := l.FetchFrom(name, logical, version)
	return payload, err
}

func (l *Library) storage() cluster.StorageModel { return l.cl.Storage() }

// StoreReplica commits a received checkpoint frame (data plus seal) to a
// node's local store — the commit step a GASPI checkpoint-stream receiver
// performs on behalf of its upstream neighbor, and the only way a replica
// reaches another node's store. Foreign keys are rejected and the frame is
// verified before the seal is written, so a mangled stream can never
// produce a sealed-but-corrupt replica.
func StoreReplica(cl *cluster.Cluster, nodeID int, key string, blob []byte) error {
	name, _, version, ok := parseKey(key)
	if !ok {
		return fmt.Errorf("checkpoint: replica under foreign key %q", key)
	}
	if _, err := DecodeFrame(blob); err != nil {
		return fmt.Errorf("checkpoint: replica %s/%s: %w", name, key, err)
	}
	n := cl.Node(nodeID)
	if err := n.Put(key, blob, cl.Storage()); err != nil {
		return err
	}
	return n.PutMeta(SealKey(key), sealFor(version))
}

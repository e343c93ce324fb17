package checkpoint

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The striped restore. Reading a whole blob from the first storage tier
// that answers (local → neighbor → remote → PFS) pays the full blob at a
// single replica's bandwidth while every other intact copy idles. The
// striped fetcher instead resolves, from seal metadata alone, the set of
// stores holding byte-identical copies (same generation tag) and fans
// fixed-size stripes out to all of them concurrently through a shared
// work queue: fast sources naturally claim more stripes, a source dying
// mid-fetch has its stripes re-queued and re-fetched elsewhere
// (first-complete-wins per stripe), and the assembled frame is CRC-checked
// before use. A blob of one stripe has nothing to spread and is read whole
// from the cheapest source. Delta chains are resolved link by link (each
// link fetched this way) and reassembled base-first with an end-to-end
// payload CRC.

// replicaRef is one alive store holding a sealed replica.
type replicaRef struct {
	node int // hosting node id; -1 = the PFS
	src  RestoreSource
	ci   chainInfo
}

// chainLink is one resolved generation of a restore chain: the stores
// holding byte-identical (same-gen) sealed copies of this version.
type chainLink struct {
	version int64
	ci      chainInfo
	sources []replicaRef
}

// sealScan collects, per version, every alive store holding a sealed
// replica of (name, logical) together with the chain identity recorded in
// the seal. Seals are metadata (GetMeta: no modeled transfer cost), so
// the scan is cheap even over the PFS.
func (l *Library) sealScan(name string, logical int) map[int64][]replicaRef {
	out := make(map[int64][]replicaRef)
	nb := l.Neighbor()
	classify := func(nodeID int) RestoreSource {
		switch nodeID {
		case -1:
			return RestorePFS
		case l.nodeID:
			return RestoreLocal
		case nb:
			return RestoreNeighbor
		default:
			return RestoreRemote
		}
	}
	consider := func(nodeID int, keys []string, getMeta func(string) ([]byte, bool)) {
		for _, k := range keys {
			dataKey, isSeal := strings.CutSuffix(k, sealSuffix)
			if !isSeal {
				continue
			}
			kn, kl, kv, ok := parseKey(dataKey)
			if !ok || kn != name || kl != logical {
				continue
			}
			blob, ok := getMeta(k)
			if !ok {
				continue
			}
			sv, ci, ok := parseSeal(blob)
			if !ok || sv != kv {
				continue
			}
			out[kv] = append(out[kv], replicaRef{node: nodeID, src: classify(nodeID), ci: ci})
		}
	}
	for nodeID := 0; nodeID < l.cl.NumNodes(); nodeID++ {
		if !l.cl.NodeAlive(nodeID) {
			continue
		}
		node := l.cl.Node(nodeID)
		consider(nodeID, node.Keys(), node.GetMeta)
	}
	consider(-1, l.cl.PFS().Keys(), l.cl.PFS().GetMeta)
	return out
}

// resolveChain returns the base-first chain of links needed to reassemble
// version v, or ok=false when no intact chain exists: every link must be
// sealed on at least one alive store, and a delta only links to a
// predecessor sealed with the exact generation tag it was diffed against
// (a version overwritten after a recovery gets a fresh tag, so a forked
// chain is detected as broken instead of being mis-assembled).
func resolveChain(reps map[int64][]replicaRef, v int64) (links []chainLink, ok bool) {
	variants := func(version int64) []chainLink {
		byGen := make(map[uint64]*chainLink)
		var order []uint64
		for _, r := range reps[version] {
			key := r.ci.gen
			cl, ok := byGen[key]
			if !ok {
				cl = &chainLink{version: version, ci: r.ci}
				byGen[key] = cl
				order = append(order, key)
			}
			cl.sources = append(cl.sources, r)
		}
		out := make([]chainLink, 0, len(order))
		for _, g := range order {
			out = append(out, *byGen[g])
		}
		return out
	}
	// Walk back from v; depth is bounded by the full-base cadence, but a
	// hard cap keeps corrupt prev pointers from looping.
	const maxDepth = 1 << 10
	var walk func(version int64, needGen uint64, depth int) ([]chainLink, bool)
	walk = func(version int64, needGen uint64, depth int) ([]chainLink, bool) {
		if depth > maxDepth {
			return nil, false
		}
		for _, cand := range variants(version) {
			if needGen != 0 && cand.ci.gen != needGen {
				continue
			}
			switch cand.ci.kind {
			case KindDelta:
				tail, ok := walk(cand.ci.prevVer, cand.ci.prevGen, depth+1)
				if !ok {
					continue
				}
				return append(tail, cand), true
			default:
				return []chainLink{cand}, true
			}
		}
		return nil, false
	}
	return walk(v, 0, 0)
}

// FindLatest returns the newest RESTORABLE version of (name, logical):
// the newest version with an intact, fully sealed base+delta chain
// reachable from the alive stores and the PFS. Only sealed replicas
// count — a copy whose flush was torn by a failure (data present, seal
// absent) is invisible, and a delta whose predecessor is gone (or was
// overwritten under a different generation tag) falls back to the newest
// sealed chain prefix. This is what lets the recovery path agree on a
// version that every member can actually reassemble. ok is false when
// nothing restorable exists anywhere.
func (l *Library) FindLatest(name string, logical int) (int64, bool) {
	return l.FindLatestBelow(name, logical, math.MaxInt64)
}

// FindLatestBelow is FindLatest restricted to versions strictly below
// bound. Recovery's version agreement uses it to retreat when some group
// member cannot reassemble the agreed version: with delta chains,
// restorability is not monotonic in version (a broken chain can hole out
// v while v' > v stays intact on a later base), so "my newest" does not
// certify everything below it.
func (l *Library) FindLatestBelow(name string, logical int, bound int64) (int64, bool) {
	reps := l.sealScan(name, logical)
	versions := make([]int64, 0, len(reps))
	for v := range reps {
		if v < bound {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] > versions[j] })
	for _, v := range versions {
		if _, ok := resolveChain(reps, v); ok {
			return v, true
		}
	}
	return 0, false
}

// FetchFrom is Fetch reporting the replica's source. It resolves the
// version's base+delta chain from seal metadata, fetches every link —
// striped across all same-generation stores — and reassembles the payload
// with end-to-end CRC verification. The reported source is the tier that
// served the most bytes (ties break toward the cheaper tier); when the
// seal-driven path finds nothing it falls back to the tier walk.
func (l *Library) FetchFrom(name string, logical int, version int64) ([]byte, RestoreSource, error) {
	reps := l.sealScan(name, logical)
	if links, ok := resolveChain(reps, version); ok {
		if payload, src, err := l.fetchChain(name, logical, links); err == nil {
			return payload, src, nil
		}
		// A link vanished or failed verification between the seal scan and
		// the reads (e.g. a source died): fall through to the tier walk,
		// which may still find a self-contained copy.
	}
	return l.tierWalk(name, logical, version)
}

// fetchChain fetches and reassembles a resolved chain (base first).
func (l *Library) fetchChain(name string, logical int, links []chainLink) ([]byte, RestoreSource, error) {
	var payload []byte
	tierBytes := make(map[RestoreSource]int64)
	for i, link := range links {
		blob, err := l.fetchBlob(Key(name, logical, link.version), link, tierBytes)
		if err != nil {
			return nil, RestoreNone, err
		}
		f, err := decodeFrame(blob)
		if err != nil {
			return nil, RestoreNone, err
		}
		if f.logical != logical || f.version != link.version || f.chain.gen != link.ci.gen {
			return nil, RestoreNone, fmt.Errorf("%w: replica identity mismatch at v%d", ErrCorrupt, link.version)
		}
		switch f.chain.kind {
		case KindDelta:
			if i == 0 {
				return nil, RestoreNone, fmt.Errorf("%w: chain starts with a delta", ErrCorrupt)
			}
			payload, err = applyDelta(payload, f)
			if err != nil {
				return nil, RestoreNone, err
			}
		default:
			// Every fetch path returns a privately owned blob (the striped
			// assembly buffer, or a store's defensive copy), so the frame
			// payload can serve directly as the mutable reassembly buffer
			// for the deltas above it — no base-sized copy.
			payload = f.payload
		}
	}
	best := RestoreNone
	var bestBytes int64 = -1
	for src, b := range tierBytes {
		if b > bestBytes || (b == bestBytes && src < best) {
			best, bestBytes = src, b
		}
	}
	return payload, best, nil
}

// fetchBlob reads one link's frame: striped across all of the link's
// sources (byte-identical by their shared generation tag) when there is
// more than one stripe to spread, else whole from the cheapest source that
// delivers a copy. tierBytes accumulates delivered bytes per tier for the
// provenance classification.
func (l *Library) fetchBlob(key string, link chainLink, tierBytes map[RestoreSource]int64) ([]byte, error) {
	sources := append([]replicaRef(nil), link.sources...)
	sort.Slice(sources, func(i, j int) bool { return sources[i].src < sources[j].src })
	// A blob that fits one stripe is never striped: the work queue would
	// hand its only stripe to whichever source dequeues first, losing the
	// tier preference exactly where striping buys nothing.
	if len(sources) > 1 {
		if size, ok := l.replicaSize(key, sources); ok && size > l.cfg.ChunkSize() {
			if blob, err := l.fetchStriped(key, size, sources, tierBytes); err == nil {
				return blob, nil
			}
			// Striped failure (every source died mid-fetch): fall back to
			// the sequential walk over whatever still answers.
		}
	}
	var lastErr error
	for _, s := range sources {
		blob, err := l.readWhole(s, key)
		if err != nil {
			lastErr = err
			continue
		}
		tierBytes[s.src] += int64(len(blob))
		return blob, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %s", ErrNoCheckpoint, key)
	}
	return nil, lastErr
}

func (l *Library) readWhole(s replicaRef, key string) ([]byte, error) {
	if s.node < 0 {
		return l.cl.PFS().Get(key)
	}
	return l.cl.Node(s.node).Get(key, l.storage())
}

func (l *Library) readRange(s replicaRef, key string, off, length int) ([]byte, error) {
	if s.node < 0 {
		return l.cl.PFS().GetRange(key, off, length)
	}
	return l.cl.Node(s.node).GetRange(key, off, length, l.storage())
}

// replicaSize asks the sources in order for the stored size of key.
func (l *Library) replicaSize(key string, sources []replicaRef) (int, bool) {
	for _, s := range sources {
		var n int
		var ok bool
		if s.node < 0 {
			n, ok = l.cl.PFS().Size(key)
		} else {
			n, ok = l.cl.Node(s.node).Size(key)
		}
		if ok {
			return n, true
		}
	}
	return 0, false
}

// fetchStriped reads one blob of size bytes (more than one chunk)
// concurrently from several byte-identical sources: stripes go through a
// shared work queue (fast sources claim more), a failed source re-queues
// its stripe and retires, and the first completed copy of each stripe
// wins. Fails only when every source dies with stripes outstanding.
func (l *Library) fetchStriped(key string, size int, sources []replicaRef, tierBytes map[RestoreSource]int64) ([]byte, error) {
	// Stripe sizing: chunk-aligned, but targeting a few stripes per source
	// rather than one stripe per chunk — each range read pays a per-op
	// latency floor, so sub-megabyte stripes would drown the parallelism
	// in fixed costs. A handful of stripes per source keeps the work queue
	// balancing (fast sources claim more) and bounds the re-fetch cost
	// when a source dies mid-stripe.
	const stripesPerSource = 4
	chunk := l.cfg.ChunkSize()
	stripe := (size + stripesPerSource*len(sources) - 1) / (stripesPerSource * len(sources))
	stripe = (stripe + chunk - 1) / chunk * chunk
	nStripes := (size + stripe - 1) / stripe
	buf := make([]byte, size)
	pending := make(chan int, nStripes+len(sources))
	for i := 0; i < nStripes; i++ {
		pending <- i
	}
	claimed := make([]atomic.Bool, nStripes)
	var remaining atomic.Int64
	remaining.Store(int64(nStripes))
	done := make(chan struct{})

	// Tier credits are accumulated locally and merged into tierBytes only
	// on success: a striped attempt that fails (and falls back to the
	// sequential walk) must not leave its discarded stripes in the
	// provenance accounting.
	got := make(map[RestoreSource]int64)
	var tierMu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range sources {
		wg.Add(1)
		go func(s replicaRef) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case idx := <-pending:
					if claimed[idx].Load() {
						continue // re-queued stripe another source already won
					}
					if h := l.stripeHook; h != nil {
						h(s.node, idx)
					}
					off := idx * stripe
					n := min(stripe, size-off)
					data, err := l.readRange(s, key, off, n)
					if err != nil {
						// Source gone: hand the stripe back and retire.
						pending <- idx
						return
					}
					if claimed[idx].CompareAndSwap(false, true) {
						copy(buf[off:], data)
						tierMu.Lock()
						got[s.src] += int64(n)
						tierMu.Unlock()
						if remaining.Add(-1) == 0 {
							close(done)
						}
					}
				}
			}
		}(s)
	}
	exhausted := make(chan struct{})
	go func() { wg.Wait(); close(exhausted) }()
	merge := func() {
		tierMu.Lock()
		for src, b := range got {
			tierBytes[src] += b
		}
		tierMu.Unlock()
	}
	select {
	case <-done:
		merge()
		return buf, nil
	case <-exhausted:
		if remaining.Load() == 0 {
			merge()
			return buf, nil
		}
		return nil, fmt.Errorf("checkpoint: striped read of %s: all %d sources failed with %d stripes outstanding",
			key, len(sources), remaining.Load())
	}
}

// tierWalk is the fallback for a source that died between the seal scan
// and the read: local store first (intact after a mere process death),
// then the ring neighbor (the replica that survives a whole-node loss),
// then every other alive node, and the PFS last, reading whole blobs and
// skipping corrupt or delta-framed copies (a delta cannot be restored
// without its chain, which the seal-driven path already failed to
// resolve).
func (l *Library) tierWalk(name string, logical int, version int64) ([]byte, RestoreSource, error) {
	key := Key(name, logical, version)
	tryNode := func(nodeID int) ([]byte, bool) {
		if nodeID < 0 || !l.cl.NodeAlive(nodeID) {
			return nil, false
		}
		blob, err := l.cl.Node(nodeID).Get(key, l.storage())
		if err != nil {
			return nil, false
		}
		f, err := decodeFrame(blob)
		if err != nil || f.chain.kind == KindDelta || f.logical != logical || f.version != version {
			return nil, false
		}
		return f.payload, true
	}
	if p, ok := tryNode(l.nodeID); ok {
		return p, RestoreLocal, nil
	}
	nb := l.Neighbor()
	if p, ok := tryNode(nb); ok {
		return p, RestoreNeighbor, nil
	}
	for nodeID := 0; nodeID < l.cl.NumNodes(); nodeID++ {
		if nodeID == l.nodeID || nodeID == nb {
			continue
		}
		if p, ok := tryNode(nodeID); ok {
			return p, RestoreRemote, nil
		}
	}
	if blob, err := l.cl.PFS().Get(key); err == nil {
		if f, derr := decodeFrame(blob); derr == nil && f.chain.kind != KindDelta &&
			f.logical == logical && f.version == version {
			return f.payload, RestorePFS, nil
		}
	}
	return nil, RestoreNone, fmt.Errorf("%w: %s", ErrNoCheckpoint, key)
}

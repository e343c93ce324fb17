package checkpoint

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The restore. A version is restorable when some alive store (or the PFS)
// holds a sealed replica of it; every replica is a self-contained frame, so
// a restore reads one of them whole. FetchFrom tries the sealed replicas in
// tier order — local, neighbor, any other alive node, PFS — and the first
// that reads, passes its CRC and names the right generation wins. A replica
// that vanished between the seal scan and its read (its node died) or that
// fails its CRC only moves the fetch on to the next one; a data object
// without its seal is never read at all.

// replicaRef is one alive store holding a sealed replica.
type replicaRef struct {
	node int // hosting node id; -1 = the PFS
	src  RestoreSource
}

// sealScan collects, per version, every alive store holding a sealed
// replica of (name, logical), in tier order. Seals are metadata (GetMeta:
// no modeled transfer cost), so the scan is cheap even over the PFS.
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
			if sv, ok := parseSeal(blob); ok && sv == kv {
				out[kv] = append(out[kv], replicaRef{node: nodeID, src: classify(nodeID)})
			}
		}
	}
	for nodeID := 0; nodeID < l.cl.NumNodes(); nodeID++ {
		if l.cl.NodeAlive(nodeID) {
			node := l.cl.Node(nodeID)
			consider(nodeID, node.Keys(), node.GetMeta)
		}
	}
	consider(-1, l.cl.PFS().Keys(), l.cl.PFS().GetMeta)
	for _, refs := range out {
		sort.SliceStable(refs, func(i, j int) bool { return refs[i].src < refs[j].src })
	}
	return out
}

// FindLatest returns the newest RESTORABLE version of (name, logical): the
// newest version with a sealed replica on an alive store or the PFS. Only
// sealed replicas count — a copy whose flush was torn by a failure (data
// present, seal absent) is invisible. This is what lets the recovery path
// agree on a version every member can fetch. ok is false when nothing
// restorable exists anywhere.
func (l *Library) FindLatest(name string, logical int) (int64, bool) {
	return l.FindLatestBelow(name, logical, math.MaxInt64)
}

// FindLatestBelow is FindLatest restricted to versions strictly below
// bound. Recovery's version agreement uses it to retreat when some group
// member could not fetch the agreed version: a replica lost between the
// scan and the read, or every replica of one version gone with its nodes,
// holes out that version while older ones may stay intact.
func (l *Library) FindLatestBelow(name string, logical int, bound int64) (int64, bool) {
	best, found := int64(0), false
	for v := range l.sealScan(name, logical) {
		if v < bound && (!found || v > best) {
			best, found = v, true
		}
	}
	return best, found
}

// FetchFrom is Fetch reporting the replica's source: it reads the sealed
// replicas of the version whole, in tier order, and returns the payload of
// the first that decodes intact as (logical, version).
func (l *Library) FetchFrom(name string, logical int, version int64) ([]byte, RestoreSource, error) {
	key := Key(name, logical, version)
	var lastErr error
	for _, s := range l.sealScan(name, logical)[version] {
		if h := l.readHook; h != nil {
			h(s.node)
		}
		var blob []byte
		var err error
		if s.node < 0 {
			blob, err = l.cl.PFS().Get(key)
		} else {
			blob, err = l.cl.Node(s.node).Get(key, l.storage())
		}
		if err == nil {
			var f frame
			if f, err = decodeFrame(blob); err == nil {
				if f.logical == logical && f.version == version {
					return f.payload, s.src, nil
				}
				err = fmt.Errorf("%w: replica names v%d of rank %d", ErrCorrupt, f.version, f.logical)
			}
		}
		lastErr = fmt.Errorf("%v replica: %w", s.src, err)
	}
	if lastErr != nil {
		return nil, RestoreNone, fmt.Errorf("%w: %s (%v)", ErrNoCheckpoint, key, lastErr)
	}
	return nil, RestoreNone, fmt.Errorf("%w: %s", ErrNoCheckpoint, key)
}

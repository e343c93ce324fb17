// Package cluster models the testbed the paper ran on (the LiMa cluster):
// nodes hosting GASPI processes, node-local storage, a shared parallel file
// system, and the fault-injection methods the paper used to validate
// recovery — exit(-1) inside the program, kill -9 from outside, network
// failure, and whole-node failure (which also destroys the node-local
// checkpoint copies, the scenario neighbor-level checkpointing exists for).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gaspi"
)

// ErrNodeDown is returned by storage operations on a failed node.
var ErrNodeDown = errors.New("cluster: node is down")

// ErrNotFound is returned when a stored object does not exist.
var ErrNotFound = errors.New("cluster: object not found")

// StorageModel describes the cost of the three storage tiers. All
// per-byte costs may be zero for tests.
type StorageModel struct {
	// LocalLatency/LocalPerByte: writing or reading the node-local store
	// (RAM disk / local SSD). Cheap.
	LocalLatency time.Duration
	LocalPerByte time.Duration
	// Deprecated: XferPerByte is inert. Neighbor checkpoint copies travel
	// over the GASPI checkpoint stream and cost what the fabric's latency
	// model charges; the field remains only until its last assignment (the
	// frozen benchmark module) is removed.
	XferPerByte time.Duration
	// PFSLatency/PFSPerByte: the parallel file system. Expensive and
	// shared: PFSWidth concurrent streams, the rest queue.
	PFSLatency time.Duration
	PFSPerByte time.Duration
	PFSWidth   int
}

// Config parameterizes a simulated cluster.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// ProcsPerNode is the number of GASPI processes per node (the paper
	// runs one 12-threaded process per node; default 1).
	ProcsPerNode int
	// Gaspi configures the communication layer. Procs is derived.
	Gaspi gaspi.Config
	// Storage is the storage cost model.
	Storage StorageModel
	// Scenario, when non-nil, arms a declarative fault schedule: an
	// Injector is attached to the cluster and the framework's progress
	// hooks fire the scheduled events (see scenario.go).
	Scenario *Scenario
}

func (c Config) withDefaults() Config {
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = 1
	}
	if c.Storage.PFSWidth <= 0 {
		c.Storage.PFSWidth = 1
	}
	return c
}

// Cluster is a running simulated cluster.
type Cluster struct {
	cfg   Config
	job   *gaspi.Job
	nodes []*Node
	pfs   *PFS
	inj   *Injector // non-nil when a Scenario is armed
}

// Node is one compute node: some ranks plus a local store that survives
// process death but is wiped by node failure.
type Node struct {
	id    int
	ranks []gaspi.Rank

	mu    sync.Mutex
	alive bool
	store map[string][]byte
}

// ProcCtx is the per-process view handed to application code: the GASPI
// process handle plus the hosting node and storage access.
type ProcCtx struct {
	*gaspi.Proc
	Cluster *Cluster
	NodeID  int
}

// New launches a cluster running main on every rank.
func New(cfg Config, main func(*ProcCtx) error) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("cluster: invalid node count %d", cfg.Nodes))
	}
	cl := &Cluster{
		cfg:   cfg,
		nodes: make([]*Node, cfg.Nodes),
		pfs:   newPFS(cfg.Storage),
	}
	for i := range cl.nodes {
		cl.nodes[i] = &Node{id: i, alive: true, store: make(map[string][]byte)}
	}
	if cfg.Scenario != nil {
		cl.inj = NewInjector(cl, cfg.Scenario)
	}
	gcfg := cfg.Gaspi
	gcfg.Procs = cfg.Nodes * cfg.ProcsPerNode
	cl.job = gaspi.Launch(gcfg, func(p *gaspi.Proc) error {
		nid := cl.NodeOf(p.Rank())
		return main(&ProcCtx{Proc: p, Cluster: cl, NodeID: nid})
	})
	for r := 0; r < gcfg.Procs; r++ {
		n := cl.nodes[cl.NodeOf(gaspi.Rank(r))]
		n.ranks = append(n.ranks, gaspi.Rank(r))
	}
	return cl
}

// Job exposes the underlying GASPI job.
func (c *Cluster) Job() *gaspi.Job { return c.job }

// Injector returns the armed fault injector, or nil when the cluster runs
// without a scenario.
func (c *Cluster) Injector() *Injector { return c.inj }

// PFS exposes the shared parallel file system.
func (c *Cluster) PFS() *PFS { return c.pfs }

// Storage returns the cluster's storage cost model.
func (c *Cluster) Storage() StorageModel { return c.cfg.Storage }

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// NumProcs returns the total rank count.
func (c *Cluster) NumProcs() int { return c.job.NumProcs() }

// NodeOf maps a rank to its hosting node.
func (c *Cluster) NodeOf(r gaspi.Rank) int { return int(r) / c.cfg.ProcsPerNode }

// RanksOf lists the ranks hosted on a node.
func (c *Cluster) RanksOf(node int) []gaspi.Rank {
	out := make([]gaspi.Rank, 0, c.cfg.ProcsPerNode)
	for i := 0; i < c.cfg.ProcsPerNode; i++ {
		out = append(out, gaspi.Rank(node*c.cfg.ProcsPerNode+i))
	}
	return out
}

// Node returns the node with the given id.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: no node %d", id))
	}
	return c.nodes[id]
}

// NodeAlive reports whether a node is up.
func (c *Cluster) NodeAlive(id int) bool {
	n := c.Node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// --- fault injection -------------------------------------------------------

// KillProc terminates a rank abruptly (`kill -9 <pid>`). Its node stays
// up, so the death is witnessed: its peers see its connections reset
// (gaspi.Job.KillProc).
func (c *Cluster) KillProc(r gaspi.Rank) {
	c.job.KillProc(r, "kill -9")
}

// KillNode fails a whole node: every hosted rank dies and the node-local
// store is wiped — the failure mode that makes neighbor-level checkpoint
// copies necessary. Nothing is left to witness the deaths: no connection
// resets, the peers find out through timeouts, probes and the FD.
func (c *Cluster) KillNode(id int) {
	n := c.Node(id)
	n.mu.Lock()
	n.alive = false
	n.store = make(map[string][]byte)
	n.mu.Unlock()
	for _, r := range c.RanksOf(id) {
		c.job.Kill(r, fmt.Sprintf("node %d failure", id))
	}
}

// PartitionNode disconnects a node's network (down=true) without killing
// its processes: they stay alive but unreachable, the paper's "physically
// introduced network failure".
func (c *Cluster) PartitionNode(id int, down bool) {
	for _, r := range c.RanksOf(id) {
		c.job.Partition(r, down)
	}
}

// LinkDown fails (down=true) or restores the single network path between
// two nodes while both stay reachable from everywhere else — the
// non-uniformly visible network failure of the paper's restriction 3: the
// affected processes see each other as dead while the fault detector sees
// both as healthy.
func (c *Cluster) LinkDown(nodeA, nodeB int, down bool) {
	tr := c.job.Transport()
	for _, a := range c.RanksOf(nodeA) {
		for _, b := range c.RanksOf(nodeB) {
			tr.SetLinkDown(a, b, down)
		}
	}
}

// Wait waits for all ranks to finish and returns their results.
func (c *Cluster) Wait() []gaspi.Result { return c.job.Wait() }

// WaitTimeout is Wait with a deadline.
func (c *Cluster) WaitTimeout(d time.Duration) ([]gaspi.Result, bool) {
	return c.job.WaitTimeout(d)
}

// Shutdown hard-stops the cluster.
func (c *Cluster) Shutdown() []gaspi.Result { return c.job.Shutdown() }

// Close tears down the cluster.
func (c *Cluster) Close() { c.job.Close() }

// --- node-local storage ------------------------------------------------------

// Put stores an object on the node's local store, costing local-write time.
func (n *Node) Put(key string, data []byte, m StorageModel) error {
	sleep(m.LocalLatency + time.Duration(len(data))*m.LocalPerByte)
	cp := make([]byte, len(data))
	copy(cp, data)
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return ErrNodeDown
	}
	n.store[key] = cp
	return nil
}

// PutMeta stores a small metadata object (e.g. a checkpoint seal) without
// modeled storage latency: metadata commits piggyback on the data write
// they follow, so charging a second full store round trip would be a
// modeling artifact.
func (n *Node) PutMeta(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return ErrNodeDown
	}
	n.store[key] = cp
	return nil
}

// Get retrieves an object from the node's local store.
func (n *Node) Get(key string, m StorageModel) ([]byte, error) {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return nil, ErrNodeDown
	}
	data, ok := n.store[key]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	sleep(m.LocalLatency + time.Duration(len(data))*m.LocalPerByte)
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// GetMeta retrieves a small metadata object (e.g. a checkpoint seal)
// without modeled storage latency, mirroring PutMeta. ok is false when the
// node is down or the key is absent.
func (n *Node) GetMeta(key string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil, false
	}
	data, ok := n.store[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, true
}

// Size reports a stored object's length without reading it (a metadata
// operation: no modeled transfer cost). ok is false when the node is down
// or the key is absent.
func (n *Node) Size(key string) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return 0, false
	}
	data, ok := n.store[key]
	if !ok {
		return 0, false
	}
	return len(data), true
}

// Delete removes an object from the node's local store (no error if absent).
func (n *Node) Delete(key string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.store, key)
}

// Keys lists the stored keys (for tests and garbage collection).
func (n *Node) Keys() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.store))
	for k := range n.store {
		out = append(out, k)
	}
	return out
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// --- parallel file system ----------------------------------------------------

// PFS is the shared parallel file system: durable (survives any node
// failure) but slow, with limited concurrent streams.
type PFS struct {
	model StorageModel
	sem   chan struct{}
	mu    sync.Mutex
	store map[string][]byte
}

func newPFS(m StorageModel) *PFS {
	return &PFS{
		model: m,
		sem:   make(chan struct{}, m.PFSWidth),
		store: make(map[string][]byte),
	}
}

// Put stores an object on the PFS, queueing for a free stream.
func (p *PFS) Put(key string, data []byte) error {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	sleep(p.model.PFSLatency + time.Duration(len(data))*p.model.PFSPerByte)
	cp := make([]byte, len(data))
	copy(cp, data)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store[key] = cp
	return nil
}

// PutMeta stores a small metadata object (a seal) without modeled PFS
// latency and without occupying a parallel stream slot.
func (p *PFS) PutMeta(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store[key] = cp
	return nil
}

// Get retrieves an object from the PFS.
func (p *PFS) Get(key string) ([]byte, error) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	p.mu.Lock()
	data, ok := p.store[key]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	sleep(p.model.PFSLatency + time.Duration(len(data))*p.model.PFSPerByte)
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// GetMeta retrieves a small metadata object (a seal) without modeled PFS
// latency and without occupying a parallel stream slot.
func (p *PFS) GetMeta(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	data, ok := p.store[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, true
}

// Keys lists the stored PFS object keys (metadata only; no transfer cost).
func (p *PFS) Keys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.store))
	for k := range p.store {
		out = append(out, k)
	}
	return out
}

func sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

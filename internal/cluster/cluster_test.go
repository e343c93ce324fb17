package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspi"
)

func testCfg(nodes, ppn int) Config {
	return Config{
		Nodes:        nodes,
		ProcsPerNode: ppn,
		Gaspi: gaspi.Config{
			Latency: fabric.LatencyModel{Base: 2 * time.Microsecond},
			Seed:    5,
		},
	}
}

func TestTopologyMapping(t *testing.T) {
	cl := New(testCfg(4, 3), func(ctx *ProcCtx) error {
		want := int(ctx.Rank()) / 3
		if ctx.NodeID != want {
			return fmt.Errorf("rank %d on node %d, want %d", ctx.Rank(), ctx.NodeID, want)
		}
		return nil
	})
	defer cl.Close()
	for _, r := range mustWait(t, cl) {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	if cl.NumNodes() != 4 || cl.NumProcs() != 12 {
		t.Fatalf("nodes=%d procs=%d", cl.NumNodes(), cl.NumProcs())
	}
	if got := cl.RanksOf(2); len(got) != 3 || got[0] != 6 || got[2] != 8 {
		t.Fatalf("RanksOf(2) = %v", got)
	}
	if cl.NodeOf(7) != 2 {
		t.Fatalf("NodeOf(7) = %d", cl.NodeOf(7))
	}
}

func mustWait(t *testing.T, cl *Cluster) []gaspi.Result {
	t.Helper()
	res, ok := cl.WaitTimeout(30 * time.Second)
	if !ok {
		t.Fatal("cluster hung")
	}
	return res
}

func TestNodeStorePutGet(t *testing.T) {
	cl := New(testCfg(2, 1), func(ctx *ProcCtx) error { return nil })
	defer cl.Close()
	mustWait(t, cl)
	n := cl.Node(0)
	var m StorageModel
	if err := n.Put("cp/1", []byte("data-1"), m); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get("cp/1", m)
	if err != nil || string(got) != "data-1" {
		t.Fatalf("got %q err=%v", got, err)
	}
	if _, err := n.Get("missing", m); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	// Returned slice is a copy: mutations must not leak into the store.
	got[0] = 'X'
	got2, _ := n.Get("cp/1", m)
	if string(got2) != "data-1" {
		t.Fatalf("store mutated: %q", got2)
	}
	n.Delete("cp/1")
	if _, err := n.Get("cp/1", m); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete did not remove key")
	}
}

func TestKillNodeWipesStoreAndProcs(t *testing.T) {
	ready := make(chan struct{}, 4)
	cl := New(testCfg(4, 1), func(ctx *ProcCtx) error {
		if err := ctx.SegmentCreate(1, 8); err != nil {
			return err
		}
		ready <- struct{}{}
		_, err := ctx.NotifyWaitsome(1, 0, 1, gaspi.Block)
		return err
	})
	defer cl.Close()
	for i := 0; i < 4; i++ {
		<-ready
	}
	var m StorageModel
	if err := cl.Node(1).Put("cp", []byte("x"), m); err != nil {
		t.Fatal(err)
	}
	cl.KillNode(1)
	if cl.NodeAlive(1) {
		t.Fatal("node still alive")
	}
	if _, err := cl.Node(1).Get("cp", m); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("want ErrNodeDown, got %v", err)
	}
	if err := cl.Node(1).Put("new", []byte("y"), m); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("want ErrNodeDown on put, got %v", err)
	}
	// All other procs still blocked; shut down.
	for i := 0; i < 3; i++ {
		// drain nothing; the dead rank's result must show a kill
	}
	res := cl.Shutdown()
	if res[1].Death == nil || !res[1].Death.Killed {
		t.Fatalf("rank 1: %+v err=%v", res[1].Death, res[1].Err)
	}
}

func TestPFSPutGetDurable(t *testing.T) {
	cfg := testCfg(2, 1)
	cl := New(cfg, func(ctx *ProcCtx) error { return nil })
	defer cl.Close()
	mustWait(t, cl)
	if err := cl.PFS().Put("global/cp", []byte("pfs-data")); err != nil {
		t.Fatal(err)
	}
	cl.KillNode(0)
	cl.KillNode(1)
	got, err := cl.PFS().Get("global/cp")
	if err != nil || string(got) != "pfs-data" {
		t.Fatalf("got %q err=%v (PFS must survive node failures)", got, err)
	}
	if _, err := cl.PFS().Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPFSContention(t *testing.T) {
	cfg := testCfg(1, 1)
	cfg.Storage.PFSLatency = 20 * time.Millisecond
	cfg.Storage.PFSWidth = 1
	cl := New(cfg, func(ctx *ProcCtx) error { return nil })
	defer cl.Close()
	mustWait(t, cl)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl.PFS().Put(fmt.Sprintf("k%d", i), []byte("x"))
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("4 serialized 20ms PFS writes finished in %v; contention not modelled", elapsed)
	}
}

func TestStorageCostModel(t *testing.T) {
	cl := New(testCfg(2, 1), func(ctx *ProcCtx) error { return nil })
	defer cl.Close()
	mustWait(t, cl)
	m := StorageModel{LocalLatency: 10 * time.Millisecond}
	start := time.Now()
	if err := cl.Node(0).Put("k", []byte("x"), m); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("local latency not applied")
	}
}

func TestPartitionNodeKeepsProcAlive(t *testing.T) {
	ready := make(chan struct{}, 2)
	partitioned := make(chan struct{})
	pinged := make(chan struct{})
	cl := New(testCfg(2, 1), func(ctx *ProcCtx) error {
		ready <- struct{}{}
		if ctx.Rank() == 0 {
			<-partitioned
			err := ctx.ProcPing(1, 20*time.Millisecond)
			close(pinged)
			if !errors.Is(err, gaspi.ErrTimeout) {
				return fmt.Errorf("want timeout through partition, got %v", err)
			}
		} else {
			<-pinged // stays alive until the ping verdict is in
		}
		return nil
	})
	defer cl.Close()
	<-ready
	<-ready
	cl.PartitionNode(1, true)
	close(partitioned)
	for _, r := range mustWait(t, cl) {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

// TestResetOnlyForAProcessDeathOnALiveNode: kill -9 of a process whose
// node stays up resets its connections, and every peer marks it corrupt
// with no traffic of its own. A node failure, a partition and a downed
// link reset nothing, and a partitioned process killed over the
// management plane posts resets the cut swallows: those faults keep the
// timer-and-probe path.
func TestResetOnlyForAProcessDeathOnALiveNode(t *testing.T) {
	const kReset = 16 // gaspi's connection-reset message kind (kinds are fixed, read by number)
	for _, row := range []struct {
		name   string
		fault  func(cl *Cluster)
		victim gaspi.Rank // NilRank: nobody dies
		posted uint64     // resets posted
		seen   bool       // the live peers mark the victim corrupt
	}{
		{"KillProc", func(cl *Cluster) { cl.KillProc(2) }, 2, 5, true},
		{"KillNode", func(cl *Cluster) { cl.KillNode(1) }, 2, 0, false},
		{"PartitionNode", func(cl *Cluster) { cl.PartitionNode(1, true) }, gaspi.NilRank, 0, false},
		{"LinkDown", func(cl *Cluster) { cl.LinkDown(0, 1, true) }, gaspi.NilRank, 0, false},
		{"ProcKill-partitioned", func(cl *Cluster) {
			cl.PartitionNode(1, true)
			_ = cl.Job().Proc(0).ProcKill(2, gaspi.Block)
		}, 2, 5, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			done := make(chan struct{})
			var ready sync.WaitGroup
			ready.Add(6)
			cl := New(testCfg(3, 2), func(ctx *ProcCtx) error {
				ready.Done()
				select {
				case <-ctx.Dead():
				case <-done:
				}
				return nil
			})
			defer cl.Close()
			ready.Wait()
			tr := cl.Job().Transport()
			base := tr.Stats()
			row.fault(cl)
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}
			if row.victim != gaspi.NilRank {
				waitFor("the victim's death", func() bool { return !cl.Job().Proc(row.victim).Alive() })
			}
			posted := func() uint64 { return tr.Stats().PerKind[kReset] - base.PerKind[kReset] }
			waitFor("the resets", func() bool { return posted() >= row.posted })
			if got := posted(); got != row.posted {
				t.Fatalf("%d resets posted, want %d", got, row.posted)
			}
			if row.posted > 0 && !row.seen {
				waitFor("the cut to swallow the resets", func() bool { return tr.Stats().Dropped-base.Dropped >= row.posted })
			}
			live := func(r gaspi.Rank) bool { return r != row.victim && cl.Job().Proc(r).Alive() }
			if row.seen {
				waitFor("every live peer to mark the victim corrupt", func() bool {
					for r := gaspi.Rank(0); r < 6; r++ {
						if live(r) && cl.Job().Proc(r).State(row.victim) != gaspi.StateCorrupt {
							return false
						}
					}
					return true
				})
			} else if row.victim != gaspi.NilRank {
				for r := gaspi.Rank(0); r < 6; r++ {
					if live(r) && cl.Job().Proc(r).State(row.victim) != gaspi.StateHealthy {
						t.Fatalf("rank %d marked the unwitnessed victim corrupt", r)
					}
				}
			}
			close(done)
			mustWait(t, cl)
		})
	}
}

package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/lanczos"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// The recovery agreement's tests: every recovery epoch runs one agreement,
// whose outcome — live resume or store restore — the tests read from
// counters, from the collectives each member makes, and from the bits of
// the answer. The layout is shadowCfg's: FD 0, spares 1..Spares, workers
// after them, the first Replication logicals shadowed by spares 1, 2, ….

// TestTwoShadowedVictimsResumeLive: both shadowed primaries die in one
// iteration. Each is replaced by its own up-to-date shadow, so every
// member proposes the same live step and the group resumes there: two
// failovers, no restore, no redone iteration.
func TestTwoShadowedVictimsResumeLive(t *testing.T) {
	want := referenceEigs(t)
	cfg := shadowCfg(2)
	cfg.FT.Replication = map[string]int{"state": 2}
	lay := cfg.Layout(1 + cfg.Spares + testWorker)
	job, eigs := launchLanczos(t, cfg, lay.Procs, cluster.ExitAt(25, 0), cluster.ExitAt(25, 1))
	waitClean(t, job, lay.InitialPhysical(0), lay.InitialPhysical(1))
	expectEigs(t, eigs(), want, 1e-6, 1, "two takeovers")
	expectCounts(t, job, map[string]int64{
		trace.KFTShadowFailovers: 2,
		trace.KFTShadowFallbacks: 0,
		trace.KCoreRestores:      0,
		trace.KCoreRedoIters:     0,
	})
}

// epochColls records, per physical rank, the collectives the rank made
// between its recovery's Rebuild and its first Step after it: the
// agreement and nothing else, since Rebuild's own collectives are not
// counted and Restore makes none.
type epochColls struct {
	mu     sync.Mutex
	counts map[ft.Rank][]int64
}

// collApp is the Lanczos app counting epochColls through
// Worker.SetCollectiveHook.
type collApp struct {
	*apps.Lanczos
	e        *epochColls
	n        int64
	counting bool
}

func (a *collApp) Rebuild(ctx *core.Ctx) error {
	err := a.Lanczos.Rebuild(ctx)
	if err == nil && ctx.Worker.Epoch() > 0 {
		a.n, a.counting = 0, true
		ctx.Worker.SetCollectiveHook(func(int64) bool { a.n++; return false })
	}
	return err
}

func (a *collApp) Step(ctx *core.Ctx, iter int64) error {
	if a.counting {
		a.counting = false
		ctx.Worker.SetCollectiveHook(nil)
		a.e.mu.Lock()
		a.e.counts[ctx.Proc.Rank()] = append(a.e.counts[ctx.Proc.Rank()], a.n)
		a.e.mu.Unlock()
	}
	return a.Lanczos.Step(ctx, iter)
}

// withoutLive hides the app's LiveIteration: its survivors offer no live
// step, so a shadow's up-to-date mirror cannot match anything.
type withoutLive struct{ core.App }

func (a withoutLive) Close() { a.App.(interface{ Close() }).Close() }

// TestRecoveryCollectivesPerEpoch pins what one recovery epoch costs in
// collectives on every member of the new group: a restore from the store
// makes the agreement and its confirmation, a takeover the agreement
// alone, and a shadow whose mirror does not match falls through to the
// store inside the same agreement — two collectives, not three.
func TestRecoveryCollectivesPerEpoch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		victim     int
		hideLive   bool
		colls      int64
		want       map[string]int64
		fallbackOn ft.Rank // the one rank that counts the fallback, or -1
	}{
		{"store", 2, false, 2, map[string]int64{
			trace.KCoreRestores: testWorker, trace.KFTShadowFailovers: 0, trace.KFTShadowFallbacks: 0,
		}, -1},
		{"takeover", 0, false, 1, map[string]int64{
			trace.KCoreRestores: 0, trace.KFTShadowFailovers: 1, trace.KFTShadowFallbacks: 0, trace.KCoreRedoIters: 0,
		}, -1},
		{"fallback", 0, true, 2, map[string]int64{
			trace.KCoreRestores: testWorker, trace.KFTShadowFailovers: 0, trace.KFTShadowFallbacks: 1,
		}, shadowRank},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &epochColls{counts: map[ft.Rank][]int64{}}
			cfg := shadowCfg(2)
			lay := cfg.Layout(1 + cfg.Spares + testWorker)
			job := core.Launch(clusterCfg(lay.Procs, cluster.ExitAt(25, tc.victim)), cfg, func() core.App {
				a := &collApp{e: e, Lanczos: apps.NewLanczos(apps.LanczosConfig{
					Gen:       testGen,
					Opts:      lanczos.Options{MaxIters: testIters, NumEigs: testEigs, Seed: 5},
					StepDelay: time.Millisecond,
				})}
				if tc.hideLive {
					return withoutLive{a}
				}
				return a
			})
			t.Cleanup(job.Close)
			victim := lay.InitialPhysical(tc.victim)
			waitClean(t, job, victim)
			expectCounts(t, job, tc.want)
			members := 0
			for r := ft.Rank(0); int(r) < lay.Procs; r++ {
				got := e.counts[r]
				if len(got) == 0 {
					continue
				}
				members++
				if len(got) != 1 || got[0] != tc.colls {
					t.Errorf("rank %d: collectives per recovery epoch %v, want [%d]", r, got, tc.colls)
				}
				want := int64(0)
				if r == tc.fallbackOn {
					want = 1
				}
				if n := job.Recorders[r].Counter(trace.KFTShadowFallbacks); n != want {
					t.Errorf("rank %d counted %d fallbacks, want %d", r, n, want)
				}
			}
			if members != testWorker {
				t.Errorf("%d ranks recovered, want %d", members, testWorker)
			}
		})
	}
}

// TestRecoveredRunKeepsFaultFreeBits: the rebuilt group commits its
// members in the rank map's order, so member index is logical rank and
// every allreduce sums in the fault-free tree. A kill at iteration 3 —
// restored from the store, or taken over by the victim's shadow — then
// ends with exactly the fault-free α and β: the FNV-64 of their bits
// (TestStepGolden's hash) matches the fault-free run of the same layout.
func TestRecoveredRunKeepsFaultFreeBits(t *testing.T) {
	gen := matrix.DefaultGraphene(32, 16, 7)
	run := func(t *testing.T, faults ...cluster.FaultEvent) (uint64, *core.Job) {
		t.Helper()
		cfg := shadowCfg(2)
		lay := cfg.Layout(1 + cfg.Spares + testWorker)
		var mu sync.Mutex
		var instances []*apps.Lanczos
		job := core.Launch(clusterCfg(lay.Procs, faults...), cfg, func() core.App {
			a := apps.NewLanczos(apps.LanczosConfig{
				Gen:       gen,
				Opts:      lanczos.Options{MaxIters: 60, Seed: 3},
				StepDelay: 200 * time.Microsecond,
			})
			mu.Lock()
			instances = append(instances, a)
			mu.Unlock()
			return a
		})
		t.Cleanup(job.Close)
		var dead []ft.Rank
		for _, f := range faults {
			dead = append(dead, lay.InitialPhysical(f.Logical))
		}
		waitClean(t, job, dead...)
		mu.Lock()
		defer mu.Unlock()
		for _, a := range instances {
			if s := a.Solver(); s != nil && s.Finished() {
				if len(s.Alpha) != 60 || len(s.Beta) != 59 {
					t.Fatalf("%d α and %d β after 60 iterations", len(s.Alpha), len(s.Beta))
				}
				h := fnv.New64a()
				for _, v := range [][]float64{s.Alpha, s.Beta} {
					for _, x := range v {
						h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
					}
				}
				return h.Sum64(), job
			}
		}
		t.Fatal("no finished solver")
		return 0, nil
	}
	faultFree, _ := run(t)
	for _, tc := range []struct {
		name    string
		victim  int
		counter string
	}{
		{"store", 2, trace.KCoreRestores},
		{"takeover", 0, trace.KFTShadowFailovers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, job := run(t, cluster.ExitAt(3, tc.victim))
			if n := trace.Aggregate(job.Recorders).SumCounter[tc.counter]; n == 0 {
				t.Fatalf("%s = 0: the recovery took another path", tc.counter)
			}
			if got != faultFree {
				t.Errorf("α/β hash %#x after the kill, %#x fault-free", got, faultFree)
			}
		})
	}
}

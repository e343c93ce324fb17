package experiment

import (
	"strings"
	"testing"
	"time"
)

// TestAsyncSweepSmallEndToEnd runs a scaled-down sync-versus-async study
// and asserts the acceptance property of the async engine: at equal
// checkpoint period the application-visible checkpoint overhead is lower
// in async mode, and the faulted runs in BOTH modes recover (complete
// without unexpected deaths, restoring at least once).
func TestAsyncSweepSmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunAsyncSweep(AsyncSweepConfig{
		StudyConfig: StudyConfig{Workers: 4, Spares: 2, Iters: 60, Nx: 16, Ny: 8, TimeScale: 100, Seed: 3},
		Periods:     []int64{5, 15},
		// 10 ms measured per commit.
		LocalWriteCost: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(res.Faults) != 2 {
		t.Fatalf("rows: %d sweep, %d faulted", len(res.Rows), len(res.Faults))
	}
	// At every period: async app-visible checkpoint time below sync.
	// Sync pays the local commit inside Write, async stages in memory and
	// lets the writer goroutine flush; at 10 ms per commit the gap (40 ms
	// at period 15) stays above the scheduling noise of a loaded host,
	// which a 50 µs commit did not, and far enough below the 100 ms
	// stream-acknowledgment deadline that replication never times out.
	for i := 0; i < len(res.Rows); i += 2 {
		sync, async := res.Rows[i], res.Rows[i+1]
		if sync.Period != async.Period || sync.Mode != "sync" || async.Mode != "async" {
			t.Fatalf("row order broken: %+v / %+v", sync, async)
		}
		if sync.Checkpoints == 0 {
			t.Fatalf("period %d: no checkpoints recorded", sync.Period)
		}
		if async.CPVisible >= sync.CPVisible {
			t.Fatalf("period %d: async cp-visible %v not below sync %v",
				sync.Period, async.CPVisible, sync.CPVisible)
		}
	}
	for _, f := range res.Faults {
		if f.Restores == 0 {
			t.Fatalf("faulted %s run never restored from a checkpoint", f.Mode)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "async hides") || !strings.Contains(out, "faulted comparison") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

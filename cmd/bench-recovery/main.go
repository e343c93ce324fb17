// Command bench-recovery seeds the repo's second performance trajectory:
// where bench-hotpath tracks the healthy-state data plane, this measures
// the cost of surviving a failure — the paper's actual headline metric —
// and emits BENCH_recovery.json.
//
// Three measurements:
//
//   - Checkpoint visible cost vs dirty fraction (10%/50%/100%): the
//     application-visible Write time of the legacy full-blob format vs
//     the incremental delta engine (chunk-hash diff, dirty chunks only,
//     full base every FullEvery-th generation), plus the neighbor
//     replication bytes each arm ships.
//   - Restore bandwidth: one replicated checkpoint generation restored
//     with the legacy sequential tier walk vs the striped multi-source
//     fetcher that fans stripes out to every intact replica concurrently.
//   - End-to-end time-to-recover: the scenario engine's mid-iteration
//     kill -9 with the delta engine enabled, decomposed into
//     detect → ack → rebuild → restore from the trace counters (detection
//     split into pushed and interval-bound), and required to classify as
//     recovered.
//
// Usage: go run ./cmd/bench-recovery [-payload N] [-versions N] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiment"
)

type output struct {
	Benchmark  string                         `json:"benchmark"`
	GOOS       string                         `json:"goos"`
	GOARCH     string                         `json:"goarch"`
	NumCPU     int                            `json:"num_cpu"`
	Checkpoint []experiment.CheckpointCostRow `json:"checkpoint_cost"`
	Restore    experiment.RestoreBenchRow     `json:"restore"`
	TTR        experiment.TTRRow              `json:"ttr"`
	// TTRLocalized is the same kill measured under the localized
	// O(degree) repair instead of the global recommit.
	TTRLocalized experiment.TTRRow `json:"ttr_localized"`
	// TTRFailover is the same kill with the victim carrying a hot shadow:
	// localized repair plus zero-restore takeover (no restore phase, no
	// recomputed iterations).
	TTRFailover experiment.TTRRow `json:"ttr_failover"`
}

func main() {
	payload := flag.Int("payload", 4<<20, "checkpoint payload bytes (visible-cost arm)")
	chunk := flag.Int("chunk", 64<<10, "delta/stripe chunk bytes")
	versions := flag.Int("versions", 10, "measured checkpoint epochs per arm")
	fullEvery := flag.Int("full-every", 8, "delta engine full-base cadence")
	restoreMB := flag.Int("restore-mb", 8, "restore-arm blob size (MiB)")
	replicas := flag.Int("replicas", 3, "node replicas for the striped restore (plus one PFS copy)")
	out := flag.String("out", "BENCH_recovery.json", "output file")
	flag.Parse()

	cfg := experiment.RecoveryBenchConfig{
		PayloadBytes: *payload,
		ChunkBytes:   *chunk,
		Versions:     *versions,
		FullEvery:    *fullEvery,
		RestoreBytes: *restoreMB << 20,
		Replicas:     *replicas,
	}

	fmt.Printf("checkpoint visible cost: %d KiB payload, %d epochs/arm, full base every %d\n",
		*payload>>10, *versions, *fullEvery)
	rows, err := experiment.RunCheckpointCost(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint arm:", err)
		os.Exit(1)
	}
	for _, r := range rows {
		fmt.Printf("  %3.0f%% dirty: full %.2f ms, delta %.2f ms (%.2fx); repl %d KiB -> %d KiB (%d full + %d delta frames)\n",
			r.DirtyFrac*100, r.FullMs, r.DeltaMs, r.Speedup,
			r.FullReplBytes>>10, r.DeltaReplBytes>>10, r.FullFrames, r.DeltaFrames)
	}

	fmt.Printf("restore bandwidth: %d MiB blob, %d node replicas + PFS\n", *restoreMB, *replicas)
	restore, err := experiment.RunRestoreBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restore arm:", err)
		os.Exit(1)
	}
	fmt.Printf("  sequential: %.2f ms (%.0f MB/s)\n", restore.SequentialMs, restore.SequentialMBpS)
	fmt.Printf("  striped:    %.2f ms (%.0f MB/s, %.2fx)\n", restore.StripedMs, restore.StripedMBpS, restore.Speedup)

	fmt.Println("end-to-end time-to-recover: kill -9 mid-iteration, delta engine")
	var ttrs [3]experiment.TTRRow
	for i, mode := range []experiment.TTRMode{experiment.TTRGlobal, experiment.TTRLocalized, experiment.TTRFailover} {
		row, err := experiment.RunTTRBenchMode(cfg, mode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttr arm:", err)
			os.Exit(1)
		}
		ttrs[i] = row
	}
	fmt.Print(experiment.RenderTTR(ttrs[:]))

	res := output{
		Benchmark:    "recovery",
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		Checkpoint:   rows,
		Restore:      restore,
		TTR:          ttrs[0],
		TTRLocalized: ttrs[1],
		TTRFailover:  ttrs[2],
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// value is one metric as the contract prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measured are the accumulators whose jobs count as the benchmark's
// operations.
func (r *run) measured() []*acc {
	out := []*acc{r.plain, r.timed, r.launches}
	for _, a := range []*acc{r.cpOff, r.hcOff, r.probe} {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

func (r *run) counts() (attempted, failed, wrong int) {
	for _, a := range r.measured() {
		attempted += a.attempted
		failed += a.failed
		wrong += a.wrong
	}
	return attempted, failed, wrong
}

// kills are the kills the recovery metrics are taken over: the workload's
// own, or on a steady workload the recovery probe's.
func (r *run) kills() []killResult {
	if r.s.steady() {
		return r.probe.kills
	}
	return slices.Concat(r.plain.kills, r.timed.kills)
}

// setups are the launches setup_s is the median of.
func (r *run) setups() []float64 { return slices.Concat(r.plain.setups, r.launches.setups) }

// endToEndValues computes the end-to-end metrics of an untraced run.
func (r *run) endToEndValues() (map[string]float64, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	kills := r.kills()
	return map[string]float64{
		"solve_slowdown": median(r.plain.slowdowns),
		"ttr_ms_p75":     quantile(column(kills, func(k killResult) float64 { return ms(k.TTR) }), 0.75),
		"catchup_ms_p75": quantile(column(kills, func(k killResult) float64 { return ms(k.Catchup) }), 0.75),
		"setup_s":        median(r.setups()),
		"peak_rss_mb":    rss,
	}, nil
}

func column(kills []killResult, f func(killResult) float64) []float64 {
	out := make([]float64, len(kills))
	for i, k := range kills {
		out[i] = f(k)
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// layerValues computes every layer metric of a traced run, the contract's
// list and the report-only ones alike.
func (r *run) layerValues() map[string]float64 {
	m := map[string]float64{}
	// Counter- and count-based layers read every measured job of the
	// workload itself, decorated or not; the spans come from the decorated
	// half and the iteration-period distribution from the plain half.
	t := r.plain.sums
	t.add(r.timed.sums)

	m["fabric.msgs_per_iter"] = div(t[sSent], t[sIters])
	m["fabric.bytes_per_iter"] = div(t[sFabricBytes], t[sIters])
	m["fabric.fast_delivered_frac"] = div(t[sFastDelivered], t[sDelivered])
	m["fabric.doorbell_wakes_per_msg"] = div(t[sDoorbellWakes], t[sSent])
	m["fabric.nacks"] = t[sNacks]
	m["fabric.dropped"] = t[sDropped]

	b := r.timed.budget.finish()
	m["gaspi.post_us"] = b.Post / 1e3
	m["gaspi.posts_per_iter"] = b.Posts
	m["gaspi.wait_queue_us"] = b.WaitQueue / 1e3
	m["gaspi.notify_wait_us"] = b.Notify / 1e3
	m["gaspi.allreduce_us"] = b.Allreduce / 1e3
	m["gaspi.allreduces_per_iter"] = b.Allreduces
	m["gaspi.pingpong_us_p50"] = r.probes.PingpongUS
	m["gaspi.barrier_us_p50"] = r.probes.BarrierUS
	m["gaspi.allreduce4_us_p50"] = r.probes.Allreduce4US

	m["spmvm.step_self_us"] = b.Self / 1e3
	m["spmvm.fastpath_iter_frac"] = div(t[sFastIters], t[sFastIters]+t[sFallbackIters])
	nnz, dim := float64(r.probes.NNZ), float64(2*r.s.Nx*r.s.Ny)
	m["spmvm.flops_per_iter"] = 2 * nnz
	// CSR values (8 B) and narrowed column indices (4 B), two row-pointer
	// arrays (local and remote part), and the twelve vector passes of one
	// Lanczos iteration (spMVM reads x and writes y; dot, axpy, norm and
	// scale read eight and write two more). Computed from sizes, not
	// measured: cache misses are not in it.
	m["spmvm.bytes_per_iter_computed"] = 12*nnz + 2*8*(dim+workers) + 12*8*dim

	m["lanczos.iters_per_s_p50"] = median(r.plain.rates)
	m["lanczos.iters_per_s_p25"] = quantile(r.plain.rates, 0.25)
	m["lanczos.iters_per_s_p90"] = quantile(r.plain.rates, 0.9)
	m["lanczos.serial_iters_per_s"] = r.probes.SerialItersPerS
	qls := slices.Concat(r.plain.qls, r.timed.qls)
	errs := slices.Concat(r.plain.eigErrs, r.timed.eigErrs)
	m["lanczos.ql_ms"] = median(qls)
	m["lanczos.eig0_rel_err"] = median(errs)
	m["lanczos.iter_us_p50"] = median(r.plain.periods)
	m["lanczos.iter_us_p99"] = quantile(r.plain.periods, 0.99)

	m["core.gap_us"] = b.Gap / 1e3
	m["checkpoint.visible_us_p50"] = median(r.plain.gapsCP) - median(r.plain.gapsPlain)
	ser := slices.Concat(r.plain.serialize, r.timed.serialize)
	payload := slices.Concat(r.plain.payloadBytes, r.timed.payloadBytes)
	m["checkpoint.serialize_us_p50"] = median(ser)
	m["checkpoint.bytes_per_cp"] = mean(payload)
	m["checkpoint.stall_us_per_cp"] = div(t[sStallNS], t[sStaged]) / 1e3
	m["checkpoint.flush_us_per_cp"] = div(t[sFlushNS], t[sFlushed]) / 1e3
	// Without the delta engine every chunk of every checkpoint is written
	// and no byte of it is a delta frame's.
	m["checkpoint.dirty_chunk_frac"], m["checkpoint.delta_bytes_frac"] = 1, 0
	if t[sTotalChunks] > 0 {
		m["checkpoint.dirty_chunk_frac"] = t[sDirtyChunks] / t[sTotalChunks]
		m["checkpoint.delta_bytes_frac"] = div(t[sDeltaBytes], t[sDeltaBytes]+t[sFullBytes])
	}
	m["checkpoint.flush_errors"] = t[sCPFlushErrors]
	m["checkpoint.off_iters_per_s"] = median(r.cpOff.rates)

	m["ft.fd_scan_us"] = div(t[sFDScanNS], t[sFDScans]) / 1e3
	m["ft.fd_pings_per_scan"] = div(t[sFDPings], t[sFDScans])
	m["ft.hc_off_iters_per_s"] = median(r.hcOff.rates)
	m["ft.cpstream_bytes_per_cp"] = div(t[sStreamBytes], t[sCheckpoints])
	m["ft.shadow_frames_per_iter"] = div(t[sShadowFrames], t[sIters])
	m["ft.epoch_restarts"] = t[sEpochRestarts]

	// The recovery layers: the workload's own kills, or on a steady
	// workload the probe's.
	kills := r.kills()
	if r.s.steady() {
		m["ft.epoch_restarts"] += r.probe.sums[sEpochRestarts]
	}
	phase := func(p int) float64 {
		return median(column(kills, func(k killResult) float64 { return ms(k.Phases[p]) }))
	}
	ttrs := column(kills, func(k killResult) float64 { return ms(k.TTR) })
	m["ft.detect_ms_p50"] = phase(phDetect)
	m["ft.ack_ms_p50"] = phase(phAck)
	m["ft.repair_ms_p50"] = phase(phRepair)
	m["ft.ttr_ms_p50"] = median(ttrs)
	m["ft.ttr_ms_p90"] = quantile(ttrs, 0.9)
	fastMode, noRedo := 0.0, 0.0
	for _, k := range kills {
		if ms(k.TTR) < median(ttrs)-7 {
			fastMode++
		}
		if k.RedoIters == 0 {
			noRedo++
		}
	}
	m["ft.ttr_fast_mode_frac"] = div(fastMode, float64(len(kills)))
	m["ft.failover_success_frac"] = div(noRedo, float64(len(kills)))
	m["core.rebuild_ms_p50"] = phase(phRebuild)
	m["core.reload_ms_p50"] = phase(phReload)
	m["core.first_step_ms_p50"] = phase(phFirstStep)
	m["core.rescue_init_ms_p50"] = median(column(kills, func(k killResult) float64 { return ms(k.RescueInit) }))
	m["core.catchup_ms_p50"] = median(column(kills, func(k killResult) float64 { return ms(k.Catchup) }))
	m["core.redo_ms_p50"] = median(column(kills, func(k killResult) float64 { return ms(k.Catchup - k.TTR) }))
	m["core.redo_iters_per_kill"] = mean(column(kills, func(k killResult) float64 { return k.RedoIters }))
	m["core.tiling_residual_steady"] = b.residual()
	m["core.tiling_residual_kill"] = quantile(column(kills, func(k killResult) float64 { return k.Residual }), 1)

	var launch, inits, rebuilds []float64
	for _, a := range []*acc{r.plain, r.timed, r.launches} {
		launch = append(launch, a.launch...)
		inits = append(inits, a.inits...)
		rebuilds = append(rebuilds, a.rebuilds...)
	}
	m["cluster.launch_ms"] = median(launch)
	m["apps.init_ms"] = median(inits)
	m["apps.rebuild_ms"] = median(rebuilds)
	m["matrix.build_ms"] = r.probes.MatrixBuildMS

	m["host.calib_ms"] = (r.calibBefore + r.calibAfter) / 2
	m["trace.overhead_frac"] = 1 - div(median(r.timed.rates), median(r.plain.rates))
	return m
}

// report prints the human-readable account and returns the contract's
// result object.
func (r *run) report(w io.Writer) (result, error) {
	fp := hostFingerprint(r.seed)
	fmt.Fprintf(w, "workload %s trace=%v seconds=%g\nwhy: %s\nhost: %v\n", r.s.Name, r.traced, r.seconds, r.s.Why, fp)
	fmt.Fprintf(w, "host.calib_ms before %.2f after %.2f\n", r.calibBefore, r.calibAfter)
	if math.Abs(r.calibAfter-r.calibBefore) > 0.1*r.calibBefore {
		fmt.Fprintf(w, "WARNING: host.calib_ms moved by more than 10%% during the run: the host drifted, compare with care\n")
	}
	attempted, failed, wrong := r.counts()
	fmt.Fprintf(w, "jobs_attempted %d jobs_failed %d of which wrong results %d (measured %d, segments %d, kills %d, launches %d)\n",
		attempted, failed, wrong, len(r.plain.solves)+len(r.timed.solves), len(r.plain.rates)+len(r.timed.rates),
		len(r.kills()), len(r.plain.setups)+len(r.timed.setups)+len(r.launches.setups))
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"segment rate 1/s", r.plain.rates}, {"solve ms", r.plain.solves}, {"solve slowdown", r.plain.slowdowns},
		{"ttr ms", column(r.kills(), func(k killResult) float64 { return ms(k.TTR) })},
		{"catch-up ms", column(r.kills(), func(k killResult) float64 { return ms(k.Catchup) })},
		{"setup s", r.setups()}} {
		fmt.Fprintf(w, "%-18s n=%-4d min %.6g p10 %.6g p25 %.6g p50 %.6g p75 %.6g p90 %.6g max %.6g\n", q.name, len(q.xs),
			quantile(q.xs, 0), quantile(q.xs, 0.1), quantile(q.xs, 0.25), median(q.xs), quantile(q.xs, 0.75), quantile(q.xs, 0.9), quantile(q.xs, 1))
	}
	for _, a := range r.measured() {
		for _, reason := range a.reasons {
			fmt.Fprintf(w, "failed job: %s\n", reason)
		}
	}

	var defs []metricDef
	var vals map[string]float64
	if r.traced {
		defs = slices.Concat(perLayer, reportOnly)
		vals = r.layerValues()
		if r.probes.Err != nil {
			return result{}, fmt.Errorf("gaspi probes: %w", r.probes.Err)
		}
		b := r.timed.budget.finish()
		fmt.Fprintf(w, "steady tiling (logical 0, %d iterations, us): post %.2f + wait_queue %.2f + notify_wait %.2f + allreduce %.2f + step_self %.2f + gap %.2f = %.2f vs period %.2f\n",
			b.N, b.Post/1e3, b.WaitQueue/1e3, b.Notify/1e3, b.Allreduce/1e3, b.Self/1e3, b.Gap/1e3,
			(b.gaspi()+b.Self+b.Gap)/1e3, b.Period/1e3)
		fmt.Fprintf(w, "shares of the period: gaspi %.1f%% step_self %.1f%% gap %.1f%%\n",
			100*div(b.gaspi(), b.Period), 100*div(b.Self, b.Period), 100*div(b.Gap, b.Period))
		if kills := r.kills(); len(kills) > 0 {
			fmt.Fprintf(w, "kill tiling (rank that resumed last, medians over %d kills, ms):", len(kills))
			for p, name := range phaseNames {
				fmt.Fprintf(w, " %s %.2f", name, median(column(kills, func(k killResult) float64 { return ms(k.Phases[p]) })))
			}
			fmt.Fprintf(w, "; TTR %.2f; worst residual %.4f\n", vals["ft.ttr_ms_p50"], vals["core.tiling_residual_kill"])
		}
		if err := r.writeTrace(); err != nil {
			return result{}, err
		}
	} else {
		defs = endToEnd
		var err error
		if vals, err = r.endToEndValues(); err != nil {
			return result{}, err
		}
	}
	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	contract := len(defs) - len(reportOnly)
	if !r.traced {
		contract = len(defs)
	}
	for i, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no value (no job produced a sample)", d.Name)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
		if i < contract {
			res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}
	return res, nil
}

// traceSpan is one span of the trace file. Comm holds, for a Step span,
// the time inside its gaspi children by kind.
type traceSpan struct {
	Name   string     `json:"name"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Parent string     `json:"parent"`
	Rank   int        `json:"rank"`
	Iter   int64      `json:"iter,omitempty"`
	OK     *bool      `json:"ok,omitempty"`
	Comm   *commTimes `json:"gaspi_children_ns,omitempty"`
}

// jobSpans lists one job's spans, every rank, in start order. The parent
// of every App call is the framework's worker loop on that rank.
func jobSpans(t *jobTrace) []traceSpan {
	var out []traceSpan
	for _, r := range t.Ranks {
		parent := fmt.Sprintf("core.worker[logical %d]", r.Logical)
		add := func(name string, s span) {
			out = append(out, traceSpan{Name: name, Start: s.Start, End: s.End, Parent: parent, Rank: r.Phys})
		}
		add("apps.Init", r.Init)
		for _, s := range r.Rebuilds {
			add("apps.Rebuild", s)
		}
		for _, s := range r.Restores {
			add("apps.Restore", s)
		}
		for _, c := range r.CPs {
			add("apps.Checkpoint", c.span)
		}
		for i := range r.Steps {
			s := r.Steps[i]
			out = append(out, traceSpan{Name: "apps.Step", Start: s.Start, End: s.End, Parent: parent,
				Rank: r.Phys, Iter: s.Iter, OK: &s.OK, Comm: &s.Comm})
		}
	}
	for _, f := range t.Faults {
		out = append(out, traceSpan{Name: "fault", Start: f.At, End: f.At, Parent: "injector", Rank: f.Phys, Iter: f.Iter})
	}
	for _, d := range t.FDDetect {
		out = append(out, traceSpan{Name: "fd:detect", Start: d, End: d, Parent: "ft.detector", Rank: 0})
	}
	for phys, acks := range t.Acks {
		for _, a := range acks {
			out = append(out, traceSpan{Name: "ft:ack", Start: a, End: a, Parent: "ft.worker", Rank: phys})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeTrace writes the first decorated job's spans; they were kept in
// memory until now.
func (r *run) writeTrace() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Host     fingerprint `json:"host"`
		Spans    []traceSpan `json:"spans"`
	}{r.s.Name, hostFingerprint(r.seed), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace_"+r.s.Name+".json"), data, 0o644)
}

package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/trace"
)

// Table1Config parameterizes the Table I reproduction: the FD's average
// ping-scan time and the failure detection + acknowledgment time (one
// random `kill -9` per run), swept over node counts.
type Table1Config struct {
	// NodeCounts are the cluster sizes (paper: 8..256).
	NodeCounts []int
	// Runs is the number of repetitions for detection timing (paper: 10).
	Runs int
	// CleanScans is the number of failure-free scans to average for the
	// ping-scan column.
	CleanScans int
	// TimeScale divides all calibrated times.
	TimeScale float64
	// Threads is the FD scan parallelism. The paper's Table I numbers show
	// a SERIAL scan (~1 ms per process, 0.255 s at 256 nodes), so the
	// default is 1; the ablation covers the threaded variant.
	Threads int
	// Seed seeds injection randomness.
	Seed int64
}

// WithDefaults fills defaults.
func (c Table1Config) WithDefaults() Table1Config {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{8, 16, 32, 64, 128, 256}
	}
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if c.CleanScans <= 0 {
		c.CleanScans = 5
	}
	if c.TimeScale <= 0 {
		c.TimeScale = DefaultTimeScale
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// Table1Row is one column of the paper's Table I (we emit it as a row).
type Table1Row struct {
	// Nodes is the cluster size.
	Nodes int
	// ScanMean is the measured average failure-free ping-scan time.
	ScanMean time.Duration
	// PingsPerScan is the average number of pings one scan issued: one per
	// live rank other than the FD, so Nodes-1 before the kill and Nodes-2
	// after it. It is the count behind ScanMean's linear growth.
	PingsPerScan float64
	// DetectMean/DetectStddev are the failure detection + acknowledgment
	// time statistics over Runs repetitions.
	DetectMean, DetectStddev time.Duration
}

// Table1Result is the full table.
type Table1Result struct {
	Cfg  Table1Config
	Rows []Table1Row
}

// RunTable1 measures both metrics for every node count.
func RunTable1(c Table1Config) (*Table1Result, error) {
	c = c.WithDefaults()
	res := &Table1Result{Cfg: c}
	rng := rand.New(rand.NewSource(c.Seed))
	for _, n := range c.NodeCounts {
		row, err := runTable1Size(c, n, rng)
		if err != nil {
			return nil, fmt.Errorf("table1 n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// runTable1Size runs the app-less measurement harness for one size: rank 0
// is the FD, rank 1 a spare (so the FD stays a detector after the kill),
// and everybody else idles while answering pings from the NIC — exactly
// what the scan measures on a busy application too, since pings are served
// by the NIC regardless of what the process computes.
func runTable1Size(c Table1Config, nodes int, rng *rand.Rand) (*Table1Row, error) {
	cal := PaperCalibration()
	var detectTimes []float64
	var scanTimes []float64
	var scanPings []float64

	for run := 0; run < c.Runs; run++ {
		ftcfg := FTConfig(cal, c.TimeScale, c.Threads)
		// Let the FD complete some clean scans, then kill one random
		// worker at a random instant within a scan period.
		detect, rec, err := detectAck(ClusterConfig(nodes, cal, c.TimeScale, c.Seed+int64(run)),
			ft.Layout{Procs: nodes, Spares: 1}, ftcfg, time.Duration(c.CleanScans)*ftcfg.ScanInterval,
			func() []gaspi.Rank {
				victim := gaspi.Rank(2 + rng.Intn(nodes-2))
				time.Sleep(time.Duration(rng.Int63n(int64(ftcfg.ScanInterval))))
				return []gaspi.Rank{victim}
			})
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", run, err)
		}
		detectTimes = append(detectTimes, detect.Seconds())
		if s := rec.Counter(trace.KFDCleanScans); s > 0 {
			scanTimes = append(scanTimes, float64(rec.Counter(trace.KFDCleanScanNS))/float64(s)/1e9)
		}
		if s := rec.Counter(trace.KFDScans); s > 0 {
			scanPings = append(scanPings, float64(rec.Counter(trace.KFDPings))/float64(s))
		}
	}

	scanMean, _ := trace.MeanStddev(scanTimes)
	pingsMean, _ := trace.MeanStddev(scanPings)
	detMean, detStd := trace.MeanStddev(detectTimes)
	return &Table1Row{
		Nodes:        nodes,
		ScanMean:     time.Duration(scanMean * 1e9),
		PingsPerScan: pingsMean,
		DetectMean:   time.Duration(detMean * 1e9),
		DetectStddev: time.Duration(detStd * 1e9),
	}, nil
}

// detectAck is the fault-detection harness of Table I and the detector
// ablation: an app-less cluster on layout lay — rank 0 the FD, the spares
// idle, every worker a stand-in polling for the failure acknowledgment
// like the application's communication wrappers do. After settle it kills
// the ranks pick returns and measures from the kill to the last survivor's
// acknowledgment. It returns that time and the FD's recorder, read once
// the cluster has stopped, so its counters are mutually consistent.
func detectAck(ccfg cluster.Config, lay ft.Layout, ftcfg ft.Config, settle time.Duration, pick func() []gaspi.Rank) (time.Duration, *trace.Recorder, error) {
	recs := make([]*trace.Recorder, lay.Procs)
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	ackCh := make(chan time.Time, lay.Procs)
	cl := cluster.New(ccfg, func(ctx *cluster.ProcCtx) error {
		p := ctx.Proc
		if err := ft.CreateBoard(p, lay); err != nil {
			return err
		}
		switch lay.RoleOf(p.Rank()) {
		case ft.RoleDetector:
			_, _, err := ft.NewDetector(p, lay, ftcfg, recs[p.Rank()]).Run()
			return err
		case ft.RoleSpare:
			_, _, _, err := ft.WaitActivation(p, lay, ftcfg)
			if errors.Is(err, ft.ErrUnrecoverable) {
				return nil
			}
			return err
		default:
			w := ft.NewWorker(p, lay, ftcfg, int(p.Rank())-1-lay.Spares, true, recs[p.Rank()])
			for {
				err := w.CheckFailure()
				var fde *ft.FailureDetectedError
				if errors.As(err, &fde) {
					ackCh <- time.Now()
					return nil
				}
				if err != nil {
					return err
				}
				if v, _ := p.NotifyPeek(ft.SegBoard, ft.NotifShutdown); v != 0 {
					return nil
				}
				time.Sleep(ftcfg.CommTimeout / 10)
			}
		}
	})
	defer cl.Shutdown()

	time.Sleep(settle)
	victims := pick()
	injected := time.Now()
	for _, v := range victims {
		cl.KillProc(v)
	}
	want := lay.Workers() - len(victims) // the victims never acknowledge
	var last time.Time
	deadline := time.After(time.Minute)
	for i := 0; i < want; i++ {
		select {
		case ts := <-ackCh:
			if ts.After(last) {
				last = ts
			}
		case <-deadline:
			return 0, nil, fmt.Errorf("only %d/%d acknowledgments", i, want)
		}
	}
	return last.Sub(injected), recs[0], nil
}

// Render formats the table in both measured and model time, mirroring the
// paper's Table I.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — FD ping-scan time and failure detection+ack time (%d runs, time scale 1/%.0f)\n\n",
		r.Cfg.Runs, r.Cfg.TimeScale)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.6f", row.ScanMean.Seconds()),
			fmt.Sprintf("%.3f", Model(row.ScanMean, r.Cfg.TimeScale).Seconds()),
			fmt.Sprintf("%.4f ±%.4f", row.DetectMean.Seconds(), row.DetectStddev.Seconds()),
			fmt.Sprintf("%.2f ±%.2f",
				Model(row.DetectMean, r.Cfg.TimeScale).Seconds(),
				Model(row.DetectStddev, r.Cfg.TimeScale).Seconds()),
		})
	}
	b.WriteString(trace.Table(
		[]string{"nodes", "scan[s]", "scan model[s]", "detect+ack[s]", "detect+ack model[s]"},
		rows))
	return b.String()
}

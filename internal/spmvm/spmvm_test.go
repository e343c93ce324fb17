package spmvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/matrix"
	"repro/internal/trace"
)

func testGaspiCfg(n int) gaspi.Config {
	return gaspi.Config{
		Procs:   n,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: time.Nanosecond},
		Seed:    3,
	}
}

// workerResults launches n ranks, giving each a Direct comm over GroupAll,
// and returns their results.
func workerResults(t *testing.T, n int, body func(c Comm) error) []gaspi.Result {
	t.Helper()
	job := gaspi.Launch(testGaspiCfg(n), func(p *gaspi.Proc) error {
		c := &Direct{P: p, Base: 0, Workers: n, Group: gaspi.GroupAll}
		return body(c)
	})
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	return res
}

// runWorkers is workerResults for bodies that must not fail.
func runWorkers(t *testing.T, n int, body func(c Comm) error) {
	t.Helper()
	for _, r := range workerResults(t, n, body) {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
}

// globalVec builds the deterministic global input vector.
func globalVec(dim int64) []float64 {
	x := make([]float64, dim)
	rng := rand.New(rand.NewSource(99))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// serialPower is the serial reference: iterate y = A x, then x = y
// (unnormalized power iteration, few steps to avoid overflow).
func serialPower(gen matrix.Generator, iters int) []float64 {
	full := matrix.Full(gen)
	ref := globalVec(gen.Dim())
	for it := 0; it < iters; it++ {
		y := make([]float64, len(ref))
		full.MulVec(ref, y)
		ref = y
	}
	return ref
}

// distPower runs the same iteration distributed over workers ranks and
// returns the global result. Preprocess runs over wrap(c), the engine
// over the plain comm.
func distPower(t *testing.T, gen matrix.Generator, workers, iters int, wrap func(Comm) Comm) []float64 {
	t.Helper()
	dim := gen.Dim()
	xg := globalVec(dim)

	var mu sync.Mutex
	got := make([]float64, dim)

	runWorkers(t, workers, func(c Comm) error {
		lo, hi := matrix.BlockRange(dim, workers, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(wrap(c), blk)
		if err != nil {
			return err
		}
		eng, err := NewEngine(c, plan, blk, 7)
		if err != nil {
			return err
		}
		x := append([]float64(nil), xg[lo:hi]...)
		y := make([]float64, hi-lo)
		for it := 0; it < iters; it++ {
			if err := eng.SpMV(x, y, int64(it)); err != nil {
				return fmt.Errorf("iter %d: %w", it, err)
			}
			x, y = y, x
			// Iterations must be separated by a collective (as in the
			// Lanczos solver) so producers cannot overrun consumers.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		mu.Lock()
		copy(got[lo:hi], x)
		mu.Unlock()
		return nil
	})
	return got
}

// encodedPlans runs Preprocess alone, over wrap(c), and returns every
// rank's encoded plan.
func encodedPlans(t *testing.T, gen matrix.Generator, workers int, wrap func(Comm) Comm) [][]byte {
	t.Helper()
	plans := make([][]byte, workers) // one slot per rank, read after the job ended
	runWorkers(t, workers, func(c Comm) error {
		lo, hi := matrix.BlockRange(gen.Dim(), workers, c.Logical())
		plan, err := Preprocess(wrap(c), Generate(gen, lo, hi))
		if err != nil {
			return err
		}
		plans[c.Logical()] = plan.Encode()
		return nil
	})
	return plans
}

func plainComm(c Comm) Comm { return c }

func checkAgainstSerial(t *testing.T, got, ref []float64) {
	t.Helper()
	for i := range ref {
		scale := math.Max(1, math.Abs(ref[i]))
		if math.Abs(got[i]-ref[i]) > 1e-9*scale {
			t.Fatalf("row %d: got %v want %v", i, got[i], ref[i])
		}
	}
}

func testSpMVAgainstSerial(t *testing.T, gen matrix.Generator, workers int, iters int) {
	t.Helper()
	checkAgainstSerial(t, distPower(t, gen, workers, iters, plainComm), serialPower(gen, iters))
}

// dupComm delivers rank 0's pre-processing request twice and holds rank
// 2's back until the duplicate is queued — what ft.Worker.PassiveSend's
// retry does when a completion times out after the message was delivered.
type dupComm struct {
	Comm
	dupQueued chan struct{}
}

func (d *dupComm) PassiveSend(to int, data []byte) error {
	switch d.Logical() {
	case 0:
		// A passive send returns once the target NIC queued the message,
		// so after the close rank 1 reads both copies before rank 2's.
		defer close(d.dupQueued)
		if err := d.Comm.PassiveSend(to, data); err != nil {
			return err
		}
	case 2:
		<-d.dupQueued
	}
	return d.Comm.PassiveSend(to, data)
}

// TestPreprocessIgnoresDuplicateRequest: a re-sent request must not be
// counted in place of one still to come. Rank 1 of the 3-rank 1-D
// Laplacian serves ranks 0 and 2; counting rank 0 twice left rank 2 out of
// SendTo, and rank 2 then waited for its iteration-0 halo forever.
func TestPreprocessIgnoresDuplicateRequest(t *testing.T) {
	gen := matrix.Laplacian1D{N: 12}
	const workers, iters = 3, 3
	withDup := func() func(Comm) Comm {
		dupQueued := make(chan struct{})
		return func(c Comm) Comm { return &dupComm{Comm: c, dupQueued: dupQueued} }
	}
	want := encodedPlans(t, gen, workers, plainComm)
	for r, enc := range encodedPlans(t, gen, workers, withDup()) {
		if !bytes.Equal(enc, want[r]) {
			plan, _ := DecodePlan(enc)
			t.Fatalf("rank %d: plan differs from the duplicate-free one: SendTo = %+v", r, plan.SendTo)
		}
	}
	checkAgainstSerial(t, distPower(t, gen, workers, iters, withDup()), serialPower(gen, iters))
}

// requestCounter counts the passive sends Preprocess asks for.
type requestCounter struct {
	Comm
	n *atomic.Int64
}

func (c requestCounter) PassiveSend(to int, data []byte) error {
	c.n.Add(1)
	return c.Comm.PassiveSend(to, data)
}

// TestPreprocessPostsEachRequestOnce: ft.Worker.PassiveSend posts again on
// every attempt that times out, and an attempt is a slice of the
// communication timeout, not the whole of it. On a healthy job no slice
// expires (the first is a second long here), so the duplicates Preprocess
// tolerates are never made by the retry loop itself: the fabric carries
// exactly one passive message per request.
func TestPreprocessPostsEachRequestOnce(t *testing.T) {
	const workers = 4
	gen := matrix.Laplacian1D{N: 16}
	lay := ft.Layout{Procs: 1 + workers}
	cfg := ft.Config{CommTimeout: 16 * time.Second}
	var requests atomic.Int64
	job := gaspi.Launch(testGaspiCfg(lay.Procs), func(p *gaspi.Proc) error {
		if err := ft.CreateBoard(p, lay); err != nil {
			return err
		}
		if p.Rank() == 0 { // the detector's seat: nothing to detect
			_, err := p.NotifyWaitsome(ft.SegBoard, ft.NotifShutdown, 1, gaspi.Block)
			return err
		}
		w := ft.NewWorker(p, lay, cfg, int(p.Rank())-1, true, trace.NewRecorder())
		if err := w.CommitInitialGroup(); err != nil {
			return err
		}
		lo, hi := matrix.BlockRange(gen.Dim(), workers, w.Logical())
		if _, err := Preprocess(requestCounter{w, &requests}, Generate(gen, lo, hi)); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil || w.Logical() != 0 {
			return err
		}
		return ft.SignalShutdown(p, lay)
	})
	t.Cleanup(job.Close)
	res, ok := job.WaitTimeout(60 * time.Second)
	if !ok {
		t.Fatal("job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	// Each interior rank of the 1-D Laplacian asks both neighbours, the two
	// end ranks one each.
	posted := job.Transport().Stats().PerKind[6] // kPassive
	if want := int64(2*workers - 2); requests.Load() != want || posted != uint64(want) {
		t.Fatalf("%d requests, %d passive messages posted, want %d of each", requests.Load(), posted, want)
	}
}

// foreignComm stamps every pre-processing request with a sender rank
// outside the job.
type foreignComm struct{ Comm }

func (f foreignComm) PassiveSend(to int, data []byte) error {
	forged := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(forged, uint64(f.NumWorkers()))
	return f.Comm.PassiveSend(to, forged)
}

func TestPreprocessRejectsForeignSender(t *testing.T) {
	gen := matrix.Laplacian1D{N: 8}
	res := workerResults(t, 2, func(c Comm) error {
		lo, hi := matrix.BlockRange(gen.Dim(), 2, c.Logical())
		_, err := Preprocess(foreignComm{c}, Generate(gen, lo, hi))
		return err
	})
	for _, r := range res {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "outside [0,2)") {
			t.Fatalf("rank %d: err = %v, want a rejected sender rank", r.Rank, r.Err)
		}
	}
}

func TestSpMVMatchesSerialGraphene(t *testing.T) {
	gen := matrix.DefaultGraphene(8, 6, 42)
	for _, w := range []int{1, 2, 5} {
		testSpMVAgainstSerial(t, gen, w, 3)
	}
}

func TestSpMVMatchesSerialUnevenSplit(t *testing.T) {
	// 96 rows over 7 workers: uneven blocks.
	testSpMVAgainstSerial(t, matrix.DefaultGraphene(8, 6, 1), 7, 2)
}

func TestSpMVLaplacian1D(t *testing.T) {
	testSpMVAgainstSerial(t, matrix.Laplacian1D{N: 50}, 4, 3)
}

func TestOwnerOfMatchesBlockRange(t *testing.T) {
	for _, dim := range []int64{10, 96, 100, 101} {
		for _, w := range []int{1, 3, 7, 10} {
			for part := 0; part < w; part++ {
				lo, hi := matrix.BlockRange(dim, w, part)
				for col := lo; col < hi; col++ {
					if got := ownerOf(col, dim, w); got != part {
						t.Fatalf("dim=%d w=%d: ownerOf(%d) = %d, want %d", dim, w, col, got, part)
					}
				}
			}
		}
	}
}

func TestPlanEncodeDecodeRoundtrip(t *testing.T) {
	p := &Plan{
		Workers:  4,
		Logical:  2,
		Lo:       10,
		Hi:       20,
		HaloCols: []int64{1, 2, 25, 30},
		SendTo: []SendPartner{
			{To: 0, LocalIdx: []int32{0, 3, 9}, DstOff: 7, DstStride: 11},
			{To: 3, LocalIdx: []int32{1}, DstOff: 0, DstStride: 4},
		},
		RecvFrom: []RecvPartner{
			{From: 0, Count: 2, Off: 0},
			{From: 3, Count: 2, Off: 2},
		},
	}
	got, err := DecodePlan(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != p.Workers || got.Logical != p.Logical || got.Lo != p.Lo || got.Hi != p.Hi {
		t.Fatalf("header: %+v", got)
	}
	if len(got.HaloCols) != 4 || got.HaloCols[2] != 25 {
		t.Fatalf("halo: %v", got.HaloCols)
	}
	if len(got.SendTo) != 2 || got.SendTo[0].LocalIdx[2] != 9 || got.SendTo[0].DstOff != 7 ||
		got.SendTo[0].DstStride != 11 || got.SendTo[1].DstStride != 4 {
		t.Fatalf("sendTo: %+v", got.SendTo)
	}
	if len(got.RecvFrom) != 2 || got.RecvFrom[1].Off != 2 {
		t.Fatalf("recvFrom: %+v", got.RecvFrom)
	}
}

func TestPlanDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodePlan(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodePlan([]byte{1, 2, 3}); err == nil {
		t.Fatal("short input accepted")
	}
	p := &Plan{Workers: 2, HaloCols: []int64{5}}
	blob := p.Encode()
	for cut := 1; cut < len(blob); cut += 7 {
		if _, err := DecodePlan(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestPlanRoundtripProperty(t *testing.T) {
	f := func(lo uint16, n uint8, cols []int64) bool {
		p := &Plan{Workers: 3, Logical: 1, Lo: int64(lo), Hi: int64(lo) + int64(n)}
		for _, c := range cols {
			if c < 0 {
				c = -c
			}
			p.HaloCols = append(p.HaloCols, c)
		}
		got, err := DecodePlan(p.Encode())
		if err != nil {
			return false
		}
		if len(got.HaloCols) != len(p.HaloCols) {
			return false
		}
		for i := range got.HaloCols {
			if got.HaloCols[i] != p.HaloCols[i] {
				return false
			}
		}
		return got.Lo == p.Lo && got.Hi == p.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestRoundtrip(t *testing.T) {
	r := request{From: 3, DstOff: 11, Stride: 23, Cols: []int64{9, 8, 7}}
	got, err := decodeRequest(encodeRequest(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || got.DstOff != 11 || got.Stride != 23 || len(got.Cols) != 3 || got.Cols[2] != 7 {
		t.Fatalf("got %+v", got)
	}
}

func TestPreprocessPlanShape(t *testing.T) {
	// On a 1-D Laplacian with 3 workers, each interior worker needs exactly
	// one value from each side.
	gen := matrix.Laplacian1D{N: 30}
	runWorkers(t, 3, func(c Comm) error {
		lo, hi := matrix.BlockRange(gen.Dim(), 3, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		wantPartners := 2
		if c.Logical() == 0 || c.Logical() == 2 {
			wantPartners = 1
		}
		if len(plan.RecvFrom) != wantPartners || len(plan.SendTo) != wantPartners {
			return fmt.Errorf("logical %d: recv=%d send=%d, want %d",
				c.Logical(), len(plan.RecvFrom), len(plan.SendTo), wantPartners)
		}
		if plan.HaloSize() != wantPartners {
			return fmt.Errorf("halo size %d", plan.HaloSize())
		}
		// Halo columns sorted.
		for i := 1; i < len(plan.HaloCols); i++ {
			if plan.HaloCols[i] <= plan.HaloCols[i-1] {
				return fmt.Errorf("halo not sorted: %v", plan.HaloCols)
			}
		}
		return nil
	})
}

func TestEngineRejectsMismatchedPlan(t *testing.T) {
	runWorkers(t, 1, func(c Comm) error {
		gen := matrix.Laplacian1D{N: 10}
		blk := Generate(gen, 0, 10)
		plan := &Plan{Workers: 1, Logical: 0, Lo: 0, Hi: 5}
		if _, err := NewEngine(c, plan, blk, 7); err == nil {
			return fmt.Errorf("mismatched plan accepted")
		}
		return nil
	})
}

func TestEngineThreadedMatchesSerial(t *testing.T) {
	gen := matrix.DefaultGraphene(10, 10, 3)
	dim := gen.Dim()
	full := matrix.Full(gen)
	x := globalVec(dim)
	want := make([]float64, dim)
	full.MulVec(x, want)

	runWorkers(t, 2, func(c Comm) error {
		lo, hi := matrix.BlockRange(dim, 2, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		eng, err := NewEngine(c, plan, blk, 7)
		if err != nil {
			return err
		}
		eng.Threads = 4
		y := make([]float64, hi-lo)
		if err := eng.SpMV(x[lo:hi], y, 0); err != nil {
			return err
		}
		for i := range y {
			if math.Abs(y[i]-want[lo+int64(i)]) > 1e-12 {
				return fmt.Errorf("row %d: %v vs %v", i, y[i], want[lo+int64(i)])
			}
		}
		return c.Barrier()
	})
}

// TestDotAndNorm: NormDot returns the global w·w and u·w from one
// two-element reduction.
func TestDotAndNorm(t *testing.T) {
	runWorkers(t, 4, func(c Comm) error {
		// Each worker owns 2 entries: w all ones, u = [rank, 3]; so
		// w·w = 8 and u·w = (0+1+2+3) + 4·3 = 18.
		w := []float64{1, 1}
		u := []float64{float64(c.Logical()), 3}
		var s DotScratch
		ww, uw, err := s.NormDot(c, w, u)
		if err != nil {
			return err
		}
		if ww != 8 || uw != 18 {
			return fmt.Errorf("w·w = %v, u·w = %v; want 8 and 18", ww, uw)
		}
		return nil
	})
}

func TestNotifValDistinguishesEpochs(t *testing.T) {
	seen := map[int64]bool{}
	for epoch := int64(0); epoch < 3; epoch++ {
		for it := int64(0); it < 100; it++ {
			v := notifVal(epoch, it)
			if v == 0 {
				t.Fatal("zero notification value")
			}
			if seen[v] {
				t.Fatalf("collision at epoch=%d it=%d", epoch, it)
			}
			seen[v] = true
		}
	}
}

func TestStaleEpochNotificationDiscarded(t *testing.T) {
	// A zombie (epoch 0) writes into the halo after the consumer moved to
	// epoch 1; the consumer must discard it and accept the fresh write.
	gen := matrix.Laplacian1D{N: 8}
	runWorkers(t, 2, func(c Comm) error {
		lo, hi := matrix.BlockRange(gen.Dim(), 2, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		if _, err := NewEngine(c, plan, blk, 7); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Logical() == 0 {
			// Simulate the zombie: a raw WriteNotify tagged epoch 0, then
			// the legitimate iteration-0 exchange would be tagged the same;
			// instead pretend the consumer is at epoch 1 by tagging our
			// legitimate write manually.
			stale := make([]byte, 8)
			if err := c.WriteNotify(1, 7, 0, stale, 0, notifVal(0, 5), HaloQueue); err != nil {
				return err
			}
			if err := c.WaitQueue(HaloQueue); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// Fresh write with the expected tag.
			fresh := make([]byte, 8)
			for i := range fresh {
				fresh[i] = 0
			}
			if err := c.WriteNotify(1, 7, 0, fresh, 0, notifVal(1, 5), HaloQueue); err != nil {
				return err
			}
			if err := c.WaitQueue(HaloQueue); err != nil {
				return err
			}
			return c.Barrier()
		}
		// Consumer: wait for stale write to land.
		if err := c.Barrier(); err != nil {
			return err
		}
		want := notifVal(1, 5)
		deadlineIt := time.Now().Add(5 * time.Second)
		for {
			if time.Now().After(deadlineIt) {
				return fmt.Errorf("fresh notification never accepted")
			}
			id, err := c.NotifyWaitsome(7, 0, 2)
			if err != nil {
				return err
			}
			got, err := c.Proc().NotifyReset(7, id)
			if err != nil {
				return err
			}
			if got == want {
				break
			}
		}
		return c.Barrier()
	})
}

// enteredComm closes entered when the halo wait is first entered.
type enteredComm struct {
	Comm
	entered chan struct{}
	once    sync.Once
}

func (c *enteredComm) NotifyWaitsome(seg gaspi.SegmentID, begin gaspi.NotificationID, num int) (gaspi.NotificationID, error) {
	c.once.Do(func() { close(c.entered) })
	return c.Comm.NotifyWaitsome(seg, begin, num)
}

// TestHaloWaitFailsOnDeadProducer: the halo wait names the producers it
// still lacks, so a producer that dies — killed on a live node, its
// connection reset — after every post to it has landed fails the wait at
// once, even with timeout=Block, where an unnamed wait would never end.
// Worker 1 waits on workers 0 and 2; worker 2 exits once worker 1 waits.
func TestHaloWaitFailsOnDeadProducer(t *testing.T) {
	gen := matrix.Laplacian1D{N: 12}
	entered := make(chan struct{})
	res := workerResults(t, 3, func(c Comm) error {
		lo, hi := matrix.BlockRange(gen.Dim(), 3, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		if c.Logical() == 1 {
			c = &enteredComm{Comm: c, entered: entered}
		}
		eng, err := NewEngine(c, plan, blk, 7)
		if err != nil {
			return err
		}
		if c.Logical() == 2 {
			<-entered
			c.Proc().Exit(-1)
		}
		x, y := make([]float64, hi-lo), make([]float64, hi-lo)
		err = eng.SpMV(x, y, 0)
		if c.Logical() == 1 {
			if !errors.Is(err, gaspi.ErrConnection) || !errors.Is(err, gaspi.ErrReset) {
				return fmt.Errorf("halo wait on a dead producer returned %v, want ErrConnection and ErrReset", err)
			}
			return nil
		}
		return err
	})
	for _, r := range res[:2] {
		if r.Err != nil {
			t.Fatalf("rank %d: %v", r.Rank, r.Err)
		}
	}
	if d := res[2].Death; d == nil || !d.Exited {
		t.Fatalf("rank 2: %+v, want its exit", d)
	}
}

func TestPlanBytesIdenticalAcrossEncodes(t *testing.T) {
	p := &Plan{Workers: 2, Logical: 0, Lo: 0, Hi: 4, HaloCols: []int64{7}}
	if !bytes.Equal(p.Encode(), p.Encode()) {
		t.Fatal("encode not deterministic")
	}
}

func TestSpMVUnstructuredPattern(t *testing.T) {
	// An unstructured matrix scatters the halo across many partners with
	// non-contiguous columns — the stress case for the plan construction.
	testSpMVAgainstSerial(t, matrix.RandomSparse{N: 120, NNZPerRow: 9, Seed: 5}, 6, 2)
}

func TestPreprocessManyPartners(t *testing.T) {
	gen := matrix.RandomSparse{N: 96, NNZPerRow: 12, Seed: 8}
	runWorkers(t, 8, func(c Comm) error {
		lo, hi := matrix.BlockRange(gen.Dim(), 8, c.Logical())
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		// With 12 random nnz per row over 8 blocks, essentially every
		// worker needs something from every other.
		if len(plan.RecvFrom) < 5 {
			return fmt.Errorf("logical %d: only %d recv partners", c.Logical(), len(plan.RecvFrom))
		}
		// Offsets must tile the halo contiguously.
		var expect int64
		for _, r := range plan.RecvFrom {
			if r.Off != expect {
				return fmt.Errorf("offset gap: %d vs %d", r.Off, expect)
			}
			expect += int64(r.Count)
		}
		if expect != int64(plan.HaloSize()) {
			return fmt.Errorf("halo not covered: %d vs %d", expect, plan.HaloSize())
		}
		return nil
	})
}

// abortedBarrier is a Comm on which the next Barrier fails without
// synchronizing, on every rank alike — what every survivor sees when a peer
// dies inside the engine's segment barrier.
type abortedBarrier struct{ Comm }

func (abortedBarrier) Barrier() error { return gaspi.ErrTimeout }

// TestRebindFromKeptSplit: a recovery keeps the Split and re-binds it to the
// recommitted group; the engine it gets multiplies exactly like one built
// from scratch by NewEngine, also when the first attempt to bind dies in
// the segment barrier and has to be retried.
func TestRebindFromKeptSplit(t *testing.T) {
	const workers = 3
	const seg, freshSeg = 7, 8
	gen := matrix.DefaultGraphene(6, 5, 3)
	dim := gen.Dim()
	xg := globalVec(dim)
	runWorkers(t, workers, func(c Comm) error {
		p := c.Proc()
		lo, hi := matrix.BlockRange(dim, workers, c.Logical())
		x := xg[lo:hi]
		// multiply runs one SpMV and the collective that separates it from
		// the next engine's traffic.
		multiply := func(e *Engine, c Comm, it int64) ([]float64, error) {
			y := make([]float64, hi-lo)
			if err := e.SpMV(x, y, it); err != nil {
				return nil, err
			}
			return y, c.Barrier()
		}
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		split, err := NewSplit(plan, blk)
		if err != nil {
			return err
		}
		fresh, err := NewEngine(c, plan, blk, freshSeg)
		if err != nil {
			return err
		}
		want, err := multiply(fresh, c, 0)
		if err != nil {
			return err
		}
		eng, err := split.Bind(c, seg)
		if err != nil {
			return err
		}
		first, err := multiply(eng, c, 0)
		if err != nil {
			return err
		}

		// The recovery: the old engine and its segment go, the group is
		// committed anew, the split stays.
		eng.Close()
		if err := p.SegmentDelete(seg); err != nil {
			return err
		}
		const regroup gaspi.GroupID = 5
		if err := p.GroupCreate(regroup); err != nil {
			return err
		}
		for r := 0; r < workers; r++ {
			if err := p.GroupAdd(regroup, gaspi.Rank(r)); err != nil {
				return err
			}
		}
		if err := p.GroupCommit(regroup, gaspi.Block); err != nil {
			return err
		}
		rc := &Direct{P: p, Base: 0, Workers: workers, Group: regroup}

		if _, err := split.Bind(abortedBarrier{rc}, seg); err == nil {
			return fmt.Errorf("bind survived a dead barrier")
		}
		if _, err := p.SegmentSize(seg); err == nil {
			return fmt.Errorf("aborted bind left its segment behind")
		}
		eng, err = split.Bind(rc, seg)
		if err != nil {
			return fmt.Errorf("second bind: %w", err)
		}
		defer eng.Close()
		// Another iteration parity than the first engine used last: nothing
		// of the old generation state may be needed.
		again, err := multiply(eng, rc, 1)
		if err != nil {
			return err
		}
		for i := range want {
			if math.Float64bits(first[i]) != math.Float64bits(want[i]) || math.Float64bits(again[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("row %d: fresh engine %v, bound split %v, re-bound split %v", i, want[i], first[i], again[i])
			}
		}
		return nil
	})
}

// TestSplitRejectsColumnOutsideHalo: a plan whose halo misses a remote
// column of the block is an error at split time, not a wrong product later.
func TestSplitRejectsColumnOutsideHalo(t *testing.T) {
	gen := matrix.Laplacian1D{N: 10}
	blk := Generate(gen, 0, 5) // row 4 references column 5
	if _, err := NewSplit(&Plan{Workers: 2, Lo: 0, Hi: 5, HaloCols: []int64{7}}, blk); err == nil {
		t.Fatal("split accepted a halo without column 5")
	}
	if _, err := NewSplit(&Plan{Workers: 2, Lo: 0, Hi: 5, HaloCols: []int64{5}}, blk); err != nil {
		t.Fatal(err)
	}
}

// TestBindBeforeCut: a Split laid out from the plan alone binds like a cut
// one — same segment, same barrier — and its engine's first SpMV posts the
// halo, then waits for the cut. Rank 0's cut is released only once every
// other rank's SpMV has returned, which took rank 0's halo: an SpMV that
// waited before posting would hang the job, one that did not wait at all
// would multiply an empty part. The product is bit-identical to a NewEngine
// engine's either way.
func TestBindBeforeCut(t *testing.T) {
	const workers = 3
	const seg, freshSeg = 7, 8
	gen := matrix.DefaultGraphene(6, 5, 3)
	dim := gen.Dim()
	xg := globalVec(dim)
	release := make(chan struct{})
	var others sync.WaitGroup
	others.Add(workers - 1)
	go func() {
		others.Wait()
		close(release)
	}()
	runWorkers(t, workers, func(c Comm) error {
		p := c.Proc()
		lo, hi := matrix.BlockRange(dim, workers, c.Logical())
		x := xg[lo:hi]
		blk := Generate(gen, lo, hi)
		plan, err := Preprocess(c, blk)
		if err != nil {
			return err
		}
		fresh, err := NewEngine(c, plan, blk, freshSeg)
		if err != nil {
			return err
		}
		want := make([]float64, hi-lo)
		if err := fresh.SpMV(x, want, 0); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		split := NewPendingSplit(plan)
		eng, err := split.Bind(c, seg) // every rank's cut is pending here
		if err != nil {
			return fmt.Errorf("bind before cut: %w", err)
		}
		defer eng.Close()
		eng.Rec = trace.NewRecorder()
		if a, _ := p.SegmentSize(seg); a == 0 {
			return fmt.Errorf("no halo segment")
		} else if b, _ := p.SegmentSize(freshSeg); a != b {
			return fmt.Errorf("halo segment of %d bytes, a cut Split's has %d", a, b)
		}
		late := c.Logical() == 0
		cut := make(chan error, 1)
		if late {
			go func() {
				<-release
				cut <- split.Cut(blk)
			}()
		} else {
			cut <- split.Cut(blk)
		}
		got := make([]float64, hi-lo)
		if err := eng.SpMV(x, got, 0); err != nil {
			return err
		}
		if !late {
			others.Done()
		}
		if err := <-cut; err != nil {
			return err
		}
		if waited := eng.Rec.Counter(trace.KAppsBlockJoinWaitNS) > 0; waited != late {
			return fmt.Errorf("join wait counted: %v, want %v", waited, late)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("row %d: pending split %v, fresh engine %v", i, got[i], want[i])
			}
		}
		return c.Barrier()
	})
}

// TestFailedCutIsEverySpMVsError: a block that does not fit the plan's halo
// is found by the cut, after Bind has succeeded; the engine reports it from
// every SpMV instead of multiplying half a matrix.
func TestFailedCutIsEverySpMVsError(t *testing.T) {
	gen := matrix.Laplacian1D{N: 10}
	runWorkers(t, 1, func(c Comm) error {
		blk := Generate(gen, 0, 5) // row 4 references column 5
		split := NewPendingSplit(&Plan{Workers: 1, Lo: 0, Hi: 5, HaloCols: []int64{7}})
		eng, err := split.Bind(c, 7)
		if err != nil {
			return err
		}
		defer eng.Close()
		if err := split.Cut(blk); err == nil {
			return fmt.Errorf("cut accepted a halo without column 5")
		}
		x, y := make([]float64, 5), make([]float64, 5)
		for it := int64(0); it < 2; it++ {
			if err := eng.SpMV(x, y, it); err == nil || !strings.Contains(err.Error(), "missing from plan halo") {
				return fmt.Errorf("SpMV %d after a failed cut: %v", it, err)
			}
		}
		return nil
	})
}

package gaspi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// Segments are backed on first touch: SegmentCreate reserves the declared
// size, writes back what they reach, views back the whole segment.

// backed returns the length of a local segment's backed prefix.
func backed(p *Proc, id SegmentID) int {
	s, err := p.segLookup(id)
	if err != nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// segPattern is the byte the tests write at segment offset i.
func segPattern(i int) byte { return byte(i*31 + 1) }

func patternBytes(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = segPattern(off + i)
	}
	return b
}

// writeThenBarrier has rank 0 write data into rank 1's segment at off and
// flush; both ranks then meet in a barrier, so rank 1 reads after the write.
func writeThenBarrier(p *Proc, seg SegmentID, off int64, data []byte) (werr, berr error) {
	if p.Rank() == 0 {
		if werr = p.Write(1, seg, off, data, 0); werr == nil {
			werr = p.WaitQueue(0, Block)
		}
	}
	return werr, p.Barrier(GroupAll, Block)
}

func TestSegmentRemoteWriteExtendsBacking(t *testing.T) {
	const size, off, n = 1 << 20, 64 << 10, 100
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, size); err != nil {
			return err
		}
		if got := backed(p, 1); got != 0 {
			return fmt.Errorf("a fresh %d-byte segment backs %d bytes", size, got)
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		werr, berr := writeThenBarrier(p, 1, off, patternBytes(off, n))
		if werr != nil || berr != nil {
			return errors.Join(werr, berr)
		}
		if p.Rank() != 1 {
			return nil
		}
		if got := backed(p, 1); got != off+n {
			return fmt.Errorf("after a write reaching %d the segment backs %d bytes", off+n, got)
		}
		got, err := p.SegmentCopyOut(1, off, n)
		if err != nil || !bytes.Equal(got, patternBytes(off, n)) {
			return fmt.Errorf("read back: err=%v, data intact=%v", err, bytes.Equal(got, patternBytes(off, n)))
		}
		if sz, err := p.SegmentSize(1); err != nil || sz != size {
			return fmt.Errorf("declared size %d (err %v), want %d", sz, err, size)
		}
		return nil
	})
}

func TestSegmentUntouchedBytesReadZero(t *testing.T) {
	const size, off, n = 4096, 1000, 24
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, size); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		werr, berr := writeThenBarrier(p, 1, off, patternBytes(off, n))
		if werr != nil || berr != nil {
			return errors.Join(werr, berr)
		}
		if p.Rank() == 1 {
			// Across the end of the backed prefix, and wholly past it.
			got, err := p.SegmentCopyOut(1, off, 2*n)
			want := append(patternBytes(off, n), make([]byte, n)...)
			if err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("copy-out across the backed end: err=%v, got %v", err, got)
			}
			if got, err := p.SegmentCopyOut(1, size-64, 64); err != nil || !bytes.Equal(got, make([]byte, 64)) {
				return fmt.Errorf("copy-out past the backed end: err=%v, got %v", err, got)
			}
			if got := backed(p, 1); got != off+n {
				return fmt.Errorf("reads extended the backing to %d bytes", got)
			}
		}
		return p.Barrier(GroupAll, Block)
	})
}

func TestSegmentWritePastDeclaredSizeFails(t *testing.T) {
	const size = 4096
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, size); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		werr, berr := writeThenBarrier(p, 1, size-4, make([]byte, 8))
		if berr != nil {
			return berr
		}
		if p.Rank() == 0 && (werr == nil || !strings.Contains(werr.Error(), "out-of-bounds")) {
			return fmt.Errorf("a write past the declared size completed with %v, want an out-of-bounds remote error", werr)
		}
		if p.Rank() != 1 {
			return nil
		}
		s, err := p.segLookup(1)
		if err != nil {
			return err
		}
		if code := s.applyRemoteWrite(size-4, make([]byte, 8)); code != remOutOfBounds {
			return fmt.Errorf("applyRemoteWrite past the declared size = %d, want remOutOfBounds", code)
		}
		if code := s.applyRemoteWrite(size-8, make([]byte, 8)); code != remOK {
			return fmt.Errorf("applyRemoteWrite ending at the declared size = %d, want remOK", code)
		}
		if err := p.SegmentCopyIn(1, size-4, make([]byte, 8)); !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("copy-in past the declared size: %v, want ErrInvalid", err)
		}
		if got := backed(p, 1); got != size {
			return fmt.Errorf("backed %d bytes, want %d", got, size)
		}
		return nil
	})
}

func TestSegmentViewBacksWholeAndStays(t *testing.T) {
	const size = 8192
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, size); err != nil {
			return err
		}
		var view []byte
		var f64 []float64
		if p.Rank() == 1 {
			var err error
			if view, err = p.SegmentData(1); err != nil {
				return err
			}
			if len(view) != size || backed(p, 1) != size {
				return fmt.Errorf("view of %d bytes, %d backed; want the whole %d", len(view), backed(p, 1), size)
			}
			if f64, err = p.SegmentFloat64s(1); err != nil {
				return err
			}
			if &view[0] != (*byte)(unsafe.Pointer(&f64[0])) {
				return errors.New("the typed view is not the byte view's memory")
			}
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		werr, berr := writeThenBarrier(p, 1, size-16, patternBytes(size-16, 16))
		if werr != nil || berr != nil {
			return errors.Join(werr, berr)
		}
		if p.Rank() != 1 {
			return nil
		}
		again, err := p.SegmentData(1)
		if err != nil {
			return err
		}
		if &again[0] != &view[0] {
			return errors.New("a write after the view moved the segment")
		}
		if !bytes.Equal(view[size-16:], patternBytes(size-16, 16)) {
			return errors.New("the view does not see the write")
		}
		return nil
	})
}

// TestSegmentConcurrentWritesAndCopyOut races remote writes that keep
// extending the backing against local copy-outs and copy-ins of the whole
// segment (run it under -race). Every byte a copy-out sees is either still
// zero or what was written there.
func TestSegmentConcurrentWritesAndCopyOut(t *testing.T) {
	const chunk, chunks = 512, 32
	const size = chunk * chunks
	launch(t, 2, func(p *Proc) error {
		if err := p.SegmentCreate(1, size); err != nil {
			return err
		}
		if err := p.Barrier(GroupAll, Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for c := 0; c < chunks; c++ {
				if err := p.Write(1, 1, int64(c*chunk), patternBytes(c*chunk, chunk), 0); err != nil {
					return err
				}
			}
			if err := p.WaitQueue(0, Block); err != nil {
				return err
			}
			return p.Barrier(GroupAll, Block)
		}
		stop := make(chan struct{})
		errc := make(chan error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // readers of the whole segment
			defer wg.Done()
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				got, err := p.SegmentCopyOut(1, 0, size)
				if err != nil {
					errc <- err
					return
				}
				for i, b := range got {
					if b != 0 && b != segPattern(i) {
						errc <- fmt.Errorf("byte %d reads %#x, neither zero nor written", i, b)
						return
					}
				}
			}
		}()
		go func() { // a local writer of what the remote writes also write
			defer wg.Done()
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				if err := p.SegmentCopyIn(1, size-chunk, patternBytes(size-chunk, chunk)); err != nil {
					errc <- err
					return
				}
			}
		}()
		err := p.Barrier(GroupAll, Block)
		close(stop)
		wg.Wait()
		if e := errors.Join(<-errc, <-errc); e != nil {
			return e
		}
		if err != nil {
			return err
		}
		got, err := p.SegmentCopyOut(1, 0, size)
		if err != nil || !bytes.Equal(got, patternBytes(0, size)) {
			return fmt.Errorf("final content: err=%v, intact=%v", err, bytes.Equal(got, patternBytes(0, size)))
		}
		return nil
	})
}

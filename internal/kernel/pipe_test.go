package kernel

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Tests of the pipe itself: each mode's data path, capacity, EOF, and the
// copy economics behind Figures 5 and 13.

// pipeBed is one machine with a producer and a consumer process joined by
// a pipe.
type pipeBed struct {
	eng        *sim.Engine
	m          *Machine
	prod, cons *Process
	rfd, wfd   int
}

func newPipeBed(ref bool) *pipeBed {
	eng, m := newMachine(Config{})
	b := &pipeBed{eng: eng, m: m, prod: m.NewProcess("producer", 1<<20), cons: m.NewProcess("consumer", 1<<20)}
	b.rfd, b.wfd = m.Pipe2(b.cons, b.prod, ref)
	return b
}

// stats reports the pipe's bytes moved, bytes copied and context switches.
func (b *pipeBed) stats() (moved, copied, switches int64) {
	d, _ := b.cons.Desc(b.rfd)
	moved, copied, switches, _ = PipeStats(d)
	return moved, copied, switches
}

func pat(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*31 + 5)
	}
	return d
}

func TestCopyPipeEndToEnd(t *testing.T) {
	b := newPipeBed(false)
	want := pat(300 << 10) // forces many capacity-bounded rounds
	var got []byte
	b.eng.Go("writer", func(p *sim.Proc) {
		b.m.WritePOSIX(p, b.prod, b.wfd, want)
		b.m.Close(p, b.prod, b.wfd)
	})
	b.eng.Go("reader", func(p *sim.Proc) {
		dst := make([]byte, 8192)
		for {
			n, err := b.m.ReadPOSIX(p, b.cons, b.rfd, dst)
			if err != nil {
				return
			}
			got = append(got, dst[:n]...)
		}
	})
	b.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("pipe corrupted data: %d vs %d bytes", len(got), len(want))
	}
	moved, copied, switches := b.stats()
	if moved != int64(len(want)) {
		t.Errorf("moved = %d", moved)
	}
	if copied != 2*int64(len(want)) {
		t.Errorf("copied = %d, want 2x payload (in + out)", copied)
	}
	if switches == 0 {
		t.Error("no context switches recorded despite blocking")
	}
	if b.m.VM.UsedBy(mem.TagSockBuf) != 0 {
		t.Error("kernel pipe buffer pages leaked")
	}
}

func TestRefPipeZeroCopyAndGrants(t *testing.T) {
	b := newPipeBed(true)
	want := pat(200 << 10)
	var got []byte
	var srcBuf *core.Buffer
	var sameBuf bool
	b.eng.Go("writer", func(p *sim.Proc) {
		agg := core.PackBytes(p, b.prod.Pool, want)
		srcBuf = agg.Slices()[0].Buf
		b.m.IOLWrite(p, b.prod, b.wfd, agg)
		b.m.Close(p, b.prod, b.wfd)
	})
	b.eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := b.m.IOLRead(p, b.cons, b.rfd, MaxIO)
			if err != nil {
				return
			}
			// Consumer's domain must be able to read (grant happened).
			core.CheckReadable(a, b.cons.Domain)
			sameBuf = a.Slices()[0].Buf == srcBuf
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	b.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("ref pipe corrupted data")
	}
	if !sameBuf {
		t.Error("reader did not receive the producer's physical buffer")
	}
	if _, copied, _ := b.stats(); copied != 0 {
		t.Errorf("ref pipe copied %d bytes, want 0", copied)
	}
}

func TestRefPipeCheaperThanCopyPipe(t *testing.T) {
	// The Figure 5/13 economics: moving N bytes through an IO-Lite pipe
	// must cost much less CPU than through a copy pipe.
	const n = 256 << 10
	elapsed := func(ref bool) sim.Duration {
		b := newPipeBed(ref)
		var doneAt sim.Time
		b.eng.Go("writer", func(p *sim.Proc) {
			if ref {
				b.m.IOLWrite(p, b.prod, b.wfd, core.PackBytes(nil, b.prod.Pool, pat(n)))
			} else {
				b.m.WritePOSIX(p, b.prod, b.wfd, pat(n))
			}
			b.m.Close(p, b.prod, b.wfd)
		})
		b.eng.Go("reader", func(p *sim.Proc) {
			if ref {
				for {
					a, err := b.m.IOLRead(p, b.cons, b.rfd, MaxIO)
					if err != nil {
						break
					}
					a.Release()
				}
			} else {
				dst := make([]byte, 16384)
				for {
					if _, err := b.m.ReadPOSIX(p, b.cons, b.rfd, dst); err != nil {
						break
					}
				}
			}
			doneAt = p.Now()
		})
		b.eng.Run()
		return sim.Duration(doneAt)
	}
	copyTime := elapsed(false)
	refTime := elapsed(true)
	if refTime*2 >= copyTime {
		t.Fatalf("ref pipe (%v) not ≥2x cheaper than copy pipe (%v)", refTime, copyTime)
	}
}

func TestCopyPipeBlocksAtCapacity(t *testing.T) {
	b := newPipeBed(false)
	writerDone := false
	b.eng.Go("writer", func(p *sim.Proc) {
		b.m.WritePOSIX(p, b.prod, b.wfd, pat(pipeCap+1)) // one byte over capacity
		writerDone = true
	})
	b.eng.Run() // no reader: writer must still be blocked
	if writerDone {
		t.Fatal("writer completed past pipe capacity with no reader")
	}
	if b.eng.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want the blocked writer", b.eng.LiveProcs())
	}
}

func TestPipeEOFOnlyAfterDrain(t *testing.T) {
	b := newPipeBed(false)
	var reads []int
	b.eng.Go("writer", func(p *sim.Proc) {
		b.m.WritePOSIX(p, b.prod, b.wfd, pat(100))
		b.m.Close(p, b.prod, b.wfd)
	})
	b.eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(1e6) // let writer close first
		dst := make([]byte, 64)
		for {
			n, err := b.m.ReadPOSIX(p, b.cons, b.rfd, dst)
			reads = append(reads, n)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Errorf("read: %v, want io.EOF", err)
				}
				return
			}
		}
	})
	b.eng.Run()
	if len(reads) < 2 || reads[len(reads)-1] != 0 {
		t.Fatalf("reads = %v, want data then EOF", reads)
	}
	total := 0
	for _, n := range reads {
		total += n
	}
	if total != 100 {
		t.Fatalf("read %d bytes, want 100", total)
	}
}

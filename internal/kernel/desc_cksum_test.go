package kernel

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/sim"
)

// cksumBed wires a ref-mode pipe from a writer to a reader process on a
// machine with the checksum cache enabled, with the reader's end wrapped
// in a checksum-verifying descriptor expecting `want`.
func cksumBed(t *testing.T, want uint16) (eng *sim.Engine, m *Machine, wr, rd *Process, vfd, wfd int) {
	t.Helper()
	eng = sim.New()
	m = NewMachine(eng, sim.DefaultCosts(), Config{ChecksumCache: true})
	wr = m.NewProcess("writer", 1<<20)
	rd = m.NewProcess("reader", 1<<20)
	rfd, wfd := m.Pipe2(rd, wr, true)
	inner, err := rd.Desc(rfd)
	if err != nil {
		t.Fatalf("Desc: %v", err)
	}
	vfd = rd.Install(NewCksumDesc(m, inner, want))
	return eng, m, wr, rd, vfd, wfd
}

func cksumDoc(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*5 + 2)
	}
	return d
}

// TestCksumDescVerifiesCleanStream streams data in several chunks through
// the wrapper: every byte is folded into the running checksum, the
// content arrives intact, and end of stream reports a clean io.EOF when
// the stream matches its expected checksum.
func TestCksumDescVerifiesCleanStream(t *testing.T) {
	data := cksumDoc(50_000)
	want := cksum.Finish(cksum.Sum(data))
	eng, m, wr, rd, vfd, wfd := cksumBed(t, want)

	eng.Go("writer", func(p *sim.Proc) {
		// Odd chunk sizes: the wrapper must combine partial sums across
		// reads with correct offset parity.
		for off := 0; off < len(data); {
			end := off + 9_999
			if end > len(data) {
				end = len(data)
			}
			a := core.PackBytes(p, wr.Pool, data[off:end])
			if err := m.IOLWrite(p, wr, wfd, a); err != nil {
				t.Errorf("IOLWrite: %v", err)
				return
			}
			off = end
		}
		m.Close(p, wr, wfd)
	})
	var got []byte
	var endErr error
	eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, rd, vfd, MaxIO)
			if err != nil {
				endErr = err
				return
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	eng.Run()

	if !bytes.Equal(got, data) {
		t.Fatalf("wrapper altered the stream (%d vs %d bytes)", len(got), len(data))
	}
	if endErr != io.EOF {
		t.Errorf("end of matching stream = %v, want io.EOF", endErr)
	}
}

// TestCksumDescDetectsCorruption writes a stream whose content differs
// from what the expected checksum was computed over — one flipped byte —
// and the wrapper must turn end of stream into ErrCorrupt.
func TestCksumDescDetectsCorruption(t *testing.T) {
	data := cksumDoc(20_000)
	want := cksum.Finish(cksum.Sum(data))
	eng, m, wr, rd, vfd, wfd := cksumBed(t, want)

	corrupt := append([]byte(nil), data...)
	corrupt[12_345] ^= 0x40 // the bit flip in transit

	eng.Go("writer", func(p *sim.Proc) {
		a := core.PackBytes(p, wr.Pool, corrupt)
		if err := m.IOLWrite(p, wr, wfd, a); err != nil {
			t.Errorf("IOLWrite: %v", err)
		}
		m.Close(p, wr, wfd)
	})
	var endErr error
	eng.Go("reader", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, rd, vfd, MaxIO)
			if err != nil {
				endErr = err
				return
			}
			a.Release()
		}
	})
	eng.Run()

	if !errors.Is(endErr, ErrCorrupt) {
		t.Fatalf("corrupted stream ended with %v, want ErrCorrupt", endErr)
	}
}

// TestCksumDescChargesLookupsOnWarmSlices re-reads the same sealed
// buffers through two wrapped streams: the second verification must hit
// the cross-subsystem checksum cache (per-slice CksumLookup probes, §3.9)
// instead of touching the bytes again.
func TestCksumDescChargesLookupsOnWarmSlices(t *testing.T) {
	data := cksumDoc(30_000)
	want := cksum.Finish(cksum.Sum(data))

	eng := sim.New()
	m := NewMachine(eng, sim.DefaultCosts(), Config{ChecksumCache: true})
	wr := m.NewProcess("writer", 1<<20)
	rd := m.NewProcess("reader", 1<<20)

	var shared *core.Agg
	run := func(tag string) {
		rfd, wfd := m.Pipe2(rd, wr, true)
		inner, _ := rd.Desc(rfd)
		vfd := rd.Install(NewCksumDesc(m, inner, want))
		eng.Go("writer"+tag, func(p *sim.Proc) {
			if shared == nil {
				shared = core.PackBytes(p, wr.Pool, data)
			}
			if err := m.IOLWrite(p, wr, wfd, shared.Clone()); err != nil {
				t.Errorf("IOLWrite: %v", err)
			}
			m.Close(p, wr, wfd)
		})
		eng.Go("reader"+tag, func(p *sim.Proc) {
			for {
				a, err := m.IOLRead(p, rd, vfd, MaxIO)
				if err != nil {
					if err != io.EOF {
						t.Errorf("stream %s ended with %v", tag, err)
					}
					return
				}
				a.Release()
			}
		})
		eng.Run()
	}

	run("1") // cold: every slice is summed
	hits1, _, _, _ := m.CkCache.Stats()
	run("2") // warm: the same sealed buffers verify by cache probe
	hits2, _, hitBytes, _ := m.CkCache.Stats()

	if hits2 <= hits1 {
		t.Errorf("second verification produced no checksum-cache hits (%d → %d)", hits1, hits2)
	}
	if hitBytes < int64(len(data)) {
		t.Errorf("cache hits covered %d bytes, want ≥ %d (the whole re-read stream)", hitBytes, len(data))
	}
}

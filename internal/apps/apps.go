// Package apps contains the converted applications of §5.8 / Figure 13:
// wc, cat|grep, permute|wc, and a gcc-like compile pipeline, each in an
// unmodified (POSIX read/write, copying pipes) variant and an IO-Lite
// variant (IOL_read/IOL_write, reference-passing pipes). The programs do
// their real work on real bytes — word counts and match counts must agree
// across variants — while their per-byte processing costs are charged to
// the simulated CPU.
package apps

import (
	"fmt"
	"maps"
	"slices"

	"iolite/internal/core"
	"iolite/internal/kernel"
	"iolite/internal/sim"
)

// Variant selects the I/O interface a program uses.
type Variant int

// The two variants of each program.
const (
	// Unmodified uses the backward-compatible POSIX calls (§4.2): read(2)
	// copies from the file cache, pipes copy twice.
	Unmodified Variant = iota
	// IOLite uses IOL_read/IOL_write and reference-mode pipes.
	IOLite
)

func (v Variant) String() string {
	if v == IOLite {
		return "IO-Lite"
	}
	return "unmodified"
}

// Per-byte application processing costs (picoseconds/byte), calibrated so
// the unmodified runtimes and the IO-Lite savings track Figure 13:
// eliminating one copy (7.5 ns/B) from wc's path must save ≈ 37 % of its
// runtime, three copies from cat|grep ≈ 48 %, two from permute|wc ≈ 33 %,
// and the compute-bound gcc pipeline ≈ 0 %.
const (
	wcScanPS   = 12800      // byte-at-a-time counting loop
	grepScanPS = 23000      // line assembly + pattern matching
	permGenPS  = 17000      // permutation generation per output byte
	gccPS      = 16_900_000 // compiler work per source byte (2.83 s / 167 KB)
)

const chunkSize = 64 << 10

// maxIO: IOL_read cap when the consumer wants whatever is queued (one
// aggregate at a time from a pipe).
const maxIO = kernel.MaxIO

// WCResult carries wc's output and timing.
type WCResult struct {
	Lines, Words, Bytes int64
	Elapsed             sim.Duration
}

// scanWC counts lines and words in data (real computation).
func scanWC(data []byte, inWord *bool, res *WCResult) {
	for _, c := range data {
		res.Bytes++
		switch {
		case c == '\n':
			res.Lines++
			*inWord = false
		case c == ' ' || c == '\t':
			*inWord = false
		default:
			if !*inWord {
				res.Words++
				*inWord = true
			}
		}
	}
}

// wcCost charges the counting loop's CPU time.
func wcCost(m *kernel.Machine, p *sim.Proc, n int) {
	m.Host.Use(p, sim.Duration(int64(n)*wcScanPS/1000))
}

// mustOpen opens a benchmark input or fails loudly: a missing file means
// the experiment is misconfigured, and a silent zero-length run would
// produce bogus figures.
func mustOpen(m *kernel.Machine, p *sim.Proc, pr *kernel.Process, name string) int {
	fd, err := m.Open(p, pr, name)
	if err != nil {
		panic(fmt.Sprintf("apps: open %s for %s: %v", name, pr.Name, err))
	}
	return fd
}

// WC runs wc over the named file (which should be warm in the file cache:
// the paper's test reads a cached 1.75 MB file). It spawns its process,
// runs the machine to completion, and returns counts and elapsed time.
func WC(m *kernel.Machine, v Variant, fileName string) WCResult {
	pr := m.NewProcess("wc", 1<<20)
	var res WCResult
	m.Eng.Go("wc", func(p *sim.Proc) {
		fd := mustOpen(m, p, pr, fileName)
		start := p.Now()
		inWord := false
		switch v {
		case Unmodified:
			buf := make([]byte, chunkSize)
			for {
				n, err := m.ReadPOSIX(p, pr, fd, buf)
				if err != nil {
					break
				}
				scanWC(buf[:n], &inWord, &res)
				wcCost(m, p, n)
			}
		case IOLite:
			for {
				a, err := m.IOLRead(p, pr, fd, chunkSize)
				if err != nil {
					break
				}
				for _, s := range a.Slices() {
					scanWC(s.Bytes(), &inWord, &res)
					wcCost(m, p, s.Len)
				}
				a.Release()
			}
		}
		res.Elapsed = p.Now().Sub(start)
	})
	m.Eng.Run()
	return res
}

// GrepResult carries grep's output and timing.
type GrepResult struct {
	Matches     int64
	LinesCopied int64 // IO-Lite: lines straddling slice boundaries (§5.8)
	Elapsed     sim.Duration
}

// grepLine reports whether the line contains pattern (real matching).
func grepLine(line, pattern []byte) bool {
	if len(pattern) == 0 || len(line) < len(pattern) {
		return false
	}
outer:
	for i := 0; i+len(pattern) <= len(line); i++ {
		for j := range pattern {
			if line[i+j] != pattern[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// CatGrep runs `cat file | grep pattern`: cat copies the file to a pipe,
// grep scans it line by line. In the unmodified variant three copies move
// every byte (file→cat, cat→pipe, pipe→grep); with IO-Lite all three
// vanish, but lines that straddle IO-Lite buffer boundaries must be copied
// into contiguous memory, exactly as §5.8 describes for the converted GNU
// grep.
func CatGrep(m *kernel.Machine, v Variant, fileName string, pattern []byte) GrepResult {
	catPr := m.NewProcess("cat", 1<<20)
	grepPr := m.NewProcess("grep", 1<<20)
	rfd, wfd := m.Pipe2(grepPr, catPr, v == IOLite)
	var res GrepResult
	var t0 sim.Time

	m.Eng.Go("cat", func(p *sim.Proc) {
		fd := mustOpen(m, p, catPr, fileName)
		t0 = p.Now()
		for {
			if v == Unmodified {
				buf := make([]byte, chunkSize)
				n, err := m.ReadPOSIX(p, catPr, fd, buf)
				if err != nil {
					break
				}
				m.WritePOSIX(p, catPr, wfd, buf[:n])
			} else {
				a, err := m.IOLRead(p, catPr, fd, chunkSize)
				if err != nil {
					break
				}
				m.IOLWrite(p, catPr, wfd, a)
			}
		}
		m.Close(p, catPr, wfd)
	})

	m.Eng.Go("grep", func(p *sim.Proc) {
		charge := func(n int) {
			m.Host.Use(p, sim.Duration(int64(n)*grepScanPS/1000))
		}
		var carry []byte // partial line carried across chunk boundaries
		scan := func(data []byte, boundaryCopy bool) {
			for len(data) > 0 {
				nl := -1
				for i, c := range data {
					if c == '\n' {
						nl = i
						break
					}
				}
				if nl < 0 {
					if boundaryCopy && len(carry) == 0 && len(data) > 0 {
						res.LinesCopied++
						m.Host.Use(p, m.Costs.Copy(len(data)))
					}
					carry = append(carry, data...)
					return
				}
				line := data[:nl]
				if len(carry) > 0 {
					line = append(carry, line...)
					carry = nil
				}
				if grepLine(line, pattern) {
					res.Matches++
				}
				data = data[nl+1:]
			}
		}
		if v == Unmodified {
			buf := make([]byte, 32<<10)
			for {
				n, err := m.ReadPOSIX(p, grepPr, rfd, buf)
				if err != nil {
					break
				}
				charge(n)
				scan(buf[:n], false)
			}
		} else {
			for {
				a, err := m.IOLRead(p, grepPr, rfd, maxIO)
				if err != nil {
					break
				}
				for _, s := range a.Slices() {
					charge(s.Len)
					scan(s.Bytes(), true)
				}
				a.Release()
			}
		}
		if len(carry) > 0 && grepLine(carry, pattern) {
			res.Matches++
		}
		res.Elapsed = p.Now().Sub(t0)
	})
	m.Eng.Run()
	return res
}

// PermuteResult carries the pipeline's output and timing.
type PermuteResult struct {
	WC      WCResult
	Elapsed sim.Duration
}

// Permute generates totalBytes of permutation output (four-character words,
// §5.8: its real output is 10!·40 = 145,152,000 bytes) and pipes it into
// wc. Generation is compute-heavy; the unmodified pipeline additionally
// copies every byte into and out of the pipe.
func Permute(m *kernel.Machine, v Variant, totalBytes int64) PermuteResult {
	genPr := m.NewProcess("permute", 1<<20)
	wcPr := m.NewProcess("wc", 1<<20)
	rfd, wfd := m.Pipe2(wcPr, genPr, v == IOLite)
	var res PermuteResult
	t0 := m.Eng.Now()

	m.Eng.Go("permute", func(p *sim.Proc) {
		alphabet := []byte("abcdefghij")
		word := make([]byte, 5)
		chunk := make([]byte, 0, chunkSize)
		emit := func(flushAll bool) {
			if len(chunk) == 0 {
				return
			}
			if !flushAll && len(chunk) < chunkSize {
				return
			}
			m.Host.Use(p, sim.Duration(int64(len(chunk))*permGenPS/1000))
			if v == Unmodified {
				m.WritePOSIX(p, genPr, wfd, chunk)
			} else {
				m.IOLWrite(p, genPr, wfd, core.PackBytes(p, genPr.Pool, chunk))
			}
			chunk = chunk[:0]
		}
		var produced int64
		for i := 0; produced < totalBytes; i++ {
			word[0] = alphabet[i%10]
			word[1] = alphabet[(i/10)%10]
			word[2] = alphabet[(i/100)%10]
			word[3] = alphabet[(i/1000)%10]
			word[4] = ' '
			if i%12 == 11 {
				word[4] = '\n'
			}
			n := int64(len(word))
			if produced+n > totalBytes {
				n = totalBytes - produced
			}
			chunk = append(chunk, word[:n]...)
			produced += n
			emit(false)
		}
		emit(true)
		m.Close(p, genPr, wfd)
	})

	m.Eng.Go("wc", func(p *sim.Proc) {
		inWord := false
		if v == Unmodified {
			buf := make([]byte, 32<<10)
			for {
				n, err := m.ReadPOSIX(p, wcPr, rfd, buf)
				if err != nil {
					break
				}
				scanWC(buf[:n], &inWord, &res.WC)
				wcCost(m, p, n)
			}
		} else {
			for {
				a, err := m.IOLRead(p, wcPr, rfd, maxIO)
				if err != nil {
					break
				}
				for _, s := range a.Slices() {
					scanWC(s.Bytes(), &inWord, &res.WC)
					wcCost(m, p, s.Len)
				}
				a.Release()
			}
		}
		res.Elapsed = p.Now().Sub(t0)
	})
	m.Eng.Run()
	return res
}

// GCCResult carries the compile pipeline's output and timing.
type GCCResult struct {
	BytesOut int64
	Elapsed  sim.Duration
}

// GCC models the gcc compiler chain of §5.8: driver → cpp → cc1 → as over
// stdio pipes, compiling the named source files (the paper uses 27 files,
// 167 KB total). Only the stdio library differs between variants — the
// compiler stages' computation dominates, so IO-Lite shows no benefit here
// (the paper's observed result).
func GCC(m *kernel.Machine, v Variant, fileNames []string) GCCResult {
	cppPr := m.NewProcess("cpp", 1<<20)
	cc1Pr := m.NewProcess("cc1", 2<<20)
	asPr := m.NewProcess("as", 1<<20)
	cc1In, cppOut := m.Pipe2(cc1Pr, cppPr, v == IOLite)
	asIn, cc1Out := m.Pipe2(asPr, cc1Pr, v == IOLite)
	var res GCCResult
	t0 := m.Eng.Now()

	// stage moves one processed chunk downstream; out < 0 is the last
	// stage, which only counts its output.
	stage := func(p *sim.Proc, pr *kernel.Process, in, out int, psPerByte int64) {
		relay := func(data []byte) {
			m.Host.Use(p, sim.Duration(int64(len(data))*psPerByte/1000))
			if out < 0 {
				res.BytesOut += int64(len(data))
				return
			}
			if v == Unmodified {
				m.WritePOSIX(p, pr, out, data)
			} else {
				m.IOLWrite(p, pr, out, core.PackBytes(p, pr.Pool, data))
			}
		}
		if v == Unmodified {
			buf := make([]byte, 32<<10)
			for {
				n, err := m.ReadPOSIX(p, pr, in, buf)
				if err != nil {
					break
				}
				relay(buf[:n])
			}
		} else {
			for {
				a, err := m.IOLRead(p, pr, in, maxIO)
				if err != nil {
					break
				}
				relay(a.Materialize())
				a.Release()
			}
		}
		if out >= 0 {
			m.Close(p, pr, out)
		}
	}

	// cpp reads the sources and feeds cc1; the per-byte compute budget is
	// split across the three stages.
	m.Eng.Go("cpp", func(p *sim.Proc) {
		for _, name := range fileNames {
			fd := mustOpen(m, p, cppPr, name)
			if v == Unmodified {
				buf := make([]byte, chunkSize)
				for {
					n, err := m.ReadPOSIX(p, cppPr, fd, buf)
					if err != nil {
						break
					}
					m.Host.Use(p, sim.Duration(int64(n)*gccPS/5/1000))
					m.WritePOSIX(p, cppPr, cppOut, buf[:n])
				}
			} else {
				for {
					a, err := m.IOLRead(p, cppPr, fd, chunkSize)
					if err != nil {
						break
					}
					m.Host.Use(p, sim.Duration(int64(a.Len())*gccPS/5/1000))
					m.IOLWrite(p, cppPr, cppOut, a)
				}
			}
			m.Close(p, cppPr, fd)
		}
		m.Close(p, cppPr, cppOut)
	})
	m.Eng.Go("cc1", func(p *sim.Proc) {
		stage(p, cc1Pr, cc1In, cc1Out, gccPS*3/5) // the compiler proper dominates
	})
	m.Eng.Go("as", func(p *sim.Proc) {
		stage(p, asPr, asIn, -1, gccPS/5)
		res.Elapsed = p.Now().Sub(t0)
	})
	m.Eng.Run()
	return res
}

// NewAppMachine builds a machine for application benchmarks and primes the
// named files into the file cache (the paper's runs are warm: "the file is
// in the file cache, so no physical I/O occurs").
func NewAppMachine(files map[string]int64) *kernel.Machine {
	eng := sim.New()
	m := kernel.NewMachine(eng, sim.DefaultCosts(), kernel.Config{})
	warm := m.NewProcess("warm", 1<<20)
	// Create and warm in name order: map order would vary the file layout
	// and cache state, and so the runtimes, from process to process.
	names := slices.Sorted(maps.Keys(files))
	for _, name := range names {
		m.FS.Create(name, files[name])
	}
	eng.Go("warm", func(p *sim.Proc) {
		for _, name := range names {
			fd := mustOpen(m, p, warm, name)
			for {
				a, err := m.IOLRead(p, warm, fd, chunkSize)
				if err != nil {
					break
				}
				a.Release()
			}
			m.Close(p, warm, fd)
		}
	})
	eng.Run()
	return m
}

// Sprint renders a Figure 13-style row.
func Sprint(name string, unmod, iol sim.Duration) string {
	return fmt.Sprintf("%-10s unmodified=%-12v io-lite=%-12v ratio=%.2f",
		name, unmod, iol, float64(iol)/float64(unmod))
}

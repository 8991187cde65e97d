package sim

import "time"

// ChargeKind classifies a metered charge for attribution (see OnCharge).
type ChargeKind uint8

const (
	// ChargeCopy is memory-to-memory copy work, in bytes.
	ChargeCopy ChargeKind = iota
	// ChargeCksum is checksum-pass work, in bytes.
	ChargeCksum
	// ChargeSyscall is one kernel crossing (n is always 1).
	ChargeSyscall
	// ChargeWire is per-segment protocol work in the netsim pump, in
	// payload bytes.
	ChargeWire
	// NumChargeKinds sizes per-kind accumulator arrays.
	NumChargeKinds
)

// String names the charge kind for reports.
func (k ChargeKind) String() string {
	switch k {
	case ChargeCopy:
		return "copy"
	case ChargeCksum:
		return "cksum"
	case ChargeSyscall:
		return "syscall"
	case ChargeWire:
		return "wire"
	}
	return "?"
}

// CostModel collects every charged cost in the simulated machine. The
// defaults approximate the paper's testbed: a 333 MHz Pentium II with 128 MB
// of memory and 5 switched 100 Mb/s Fast Ethernet adaptors (§5).
//
// Per-byte costs are expressed in picoseconds per byte so that costs of
// small transfers do not round to zero.
type CostModel struct {
	// CopyPSPerByte is the cost of one byte of memory-to-memory copy.
	// Copying "proceeds at memory rather than CPU speed" (§2); mid-range
	// for SDRAM-era memcpy is on the order of 100–170 MB/s.
	CopyPSPerByte int64
	// CksumPSPerByte is the cost of one byte of Internet checksum: a
	// read-only pass, roughly twice as fast as a copy.
	CksumPSPerByte int64

	// Syscall is the fixed kernel entry/exit cost of one system call.
	Syscall time.Duration
	// PageMap charges establishing one PTE.
	PageMap time.Duration
	// ChunkMap charges changing the protection of one 64 KB IO-Lite chunk
	// in one address space (§4.5); it covers the per-page PTE writes within
	// the chunk plus the VM bookkeeping.
	ChunkMap time.Duration

	// BufAlloc charges allocating an IO-Lite buffer from a pool with a free
	// buffer available; BufAllocCold charges the slow path that must map a
	// fresh chunk (the "worst-case transfer" of §3.2 adds ChunkMap costs).
	BufAlloc     time.Duration
	BufAllocCold time.Duration
	// AggOp charges one aggregate pointer manipulation (append, split, ...)
	// per slice touched.
	AggOp time.Duration
	// MbufAlloc charges allocating one mbuf header.
	MbufAlloc time.Duration

	// Packet charges the per-packet protocol + driver path (IP/TCP header
	// processing, DMA descriptor setup); it is paid per packet on both send
	// and receive regardless of payload size.
	Packet time.Duration
	// Interrupt charges taking one device interrupt.
	Interrupt time.Duration
	// TCPSetup and TCPTeardown charge connection establishment/termination
	// including the extra packets' control work.
	TCPSetup    time.Duration
	TCPTeardown time.Duration
	// Demux charges the early-demultiplexing packet filter per packet
	// (§3.6).
	Demux time.Duration
	// SegChunk charges the residual per-MSS work inside an offloaded
	// super-segment: the NIC segmentation descriptor / DMA setup for one
	// extra wire chunk beyond the first. It replaces a full Packet +
	// MbufAlloc + Interrupt round for every MSS after the first, which is
	// the whole point of LSO/GRO-style offload.
	SegChunk time.Duration

	// ProcSwitch charges one context switch between processes.
	ProcSwitch time.Duration
	// Fork charges creating one process (Apache's per-connection model
	// amortizes this; FastCGI avoids it).
	Fork time.Duration

	// FileOpen charges a name lookup + descriptor setup.
	FileOpen time.Duration
	// CacheLookup charges one file cache lookup.
	CacheLookup time.Duration
	// CksumLookup charges one checksum-cache probe that hits (§3.9): a hash
	// of ⟨buffer, generation, offset, length⟩ instead of a pass over the
	// bytes. Misses charge Cksum for the bytes on top.
	CksumLookup time.Duration

	// meter accumulates the copy work the model has priced out, for tests
	// and benchmarks that assert "zero copies on this path" or report
	// copies avoided. Copy is only invoked where the resulting duration is
	// charged, so the meter tracks charged work. meterSyscalls counts
	// kernel crossings priced via MeterSyscall — the currency the
	// submission ring economizes.
	meterCopied   int64
	meterSyscalls int64

	// DiskSeek is the average positioning time per disk request;
	// DiskPSPerByte the media transfer cost per byte.
	DiskSeek      time.Duration
	DiskPSPerByte int64

	// OnCharge, when non-nil, observes every metered charge as it is
	// priced: copy and checksum bytes, kernel crossings, and (via
	// EmitWire) per-segment wire work. bind carries an explicit
	// attribution context when the charging site knows one (the netsim
	// pump working on behalf of a sender); nil means "resolve from the
	// running process". The single nil check below is the whole cost
	// when observability is off.
	OnCharge func(kind ChargeKind, n int64, bind interface{})
}

// DefaultCosts returns the calibrated cost model. Calibration anchors:
//
//   - §5.8 wc on a cached 1.75 MB file: eliminating one kernel→user copy and
//     paying per-page maps instead must save ≈ 35 % of runtime.
//   - Figure 3 large-file plateau: Flash-Lite ≈ 380 Mb/s (close to the
//     5×100 Mb/s links), Flash ≈ 270 Mb/s, i.e. copy+checksum ≈ 40 % of the
//     per-byte path.
//   - Figure 3 small files: ≤ 5 KB requests are dominated by per-request
//     control (TCP setup + syscalls + server work), where Flash and
//     Flash-Lite tie.
func DefaultCosts() *CostModel {
	return &CostModel{
		CopyPSPerByte:  7500, // 7.5 ns/B ≈ 133 MB/s memcpy
		CksumPSPerByte: 3800, // 3.8 ns/B ≈ 263 MB/s checksum pass

		Syscall:  3 * time.Microsecond,
		PageMap:  1500 * time.Nanosecond,
		ChunkMap: 9 * time.Microsecond,

		BufAlloc:     1200 * time.Nanosecond,
		BufAllocCold: 15 * time.Microsecond,
		AggOp:        250 * time.Nanosecond,
		MbufAlloc:    400 * time.Nanosecond,

		Packet:      19 * time.Microsecond,
		Interrupt:   5 * time.Microsecond,
		TCPSetup:    90 * time.Microsecond,
		TCPTeardown: 45 * time.Microsecond,
		Demux:       1500 * time.Nanosecond,
		SegChunk:    700 * time.Nanosecond,

		ProcSwitch: 11 * time.Microsecond,
		Fork:       350 * time.Microsecond,

		FileOpen:    14 * time.Microsecond,
		CacheLookup: 2 * time.Microsecond,
		CksumLookup: 400 * time.Nanosecond,

		DiskSeek:      7500 * time.Microsecond,
		DiskPSPerByte: 55000, // 55 ns/B ≈ 18 MB/s media rate
	}
}

// Copy returns the cost of copying n bytes and meters them as charged copy
// work. Callers that only want the price (test assertions, capacity math)
// must use PriceCopy instead, which leaves the meter alone.
func (c *CostModel) Copy(n int) time.Duration {
	c.meterCopied += int64(n)
	if c.OnCharge != nil {
		c.OnCharge(ChargeCopy, int64(n), nil)
	}
	return c.PriceCopy(n)
}

// PriceCopy returns the cost of copying n bytes without metering.
func (c *CostModel) PriceCopy(n int) time.Duration {
	return time.Duration(int64(n) * c.CopyPSPerByte / 1000)
}

// Cksum returns the cost of checksumming n bytes and meters them as charged
// checksum work. Pure queries must use PriceCksum.
func (c *CostModel) Cksum(n int) time.Duration {
	if c.OnCharge != nil {
		c.OnCharge(ChargeCksum, int64(n), nil)
	}
	return c.PriceCksum(n)
}

// PriceCksum returns the cost of checksumming n bytes without metering.
func (c *CostModel) PriceCksum(n int) time.Duration {
	return time.Duration(int64(n) * c.CksumPSPerByte / 1000)
}

// MeterSyscall returns the cost of one kernel crossing and counts it.
// Every charged syscall entry point routes through this, so the counter is
// the machine-wide syscall tally (pure price queries read Syscall directly).
func (c *CostModel) MeterSyscall() time.Duration {
	c.meterSyscalls++
	if c.OnCharge != nil {
		c.OnCharge(ChargeSyscall, 1, nil)
	}
	return c.Syscall
}

// EmitWire reports n bytes of per-segment wire work to the attribution
// hook on behalf of bind (the sender whose payload fills the segment).
// Wire work is not metered — packet counters live on netsim.Host — so
// this only feeds OnCharge and is free when no hook is installed.
func (c *CostModel) EmitWire(n int64, bind interface{}) {
	if c.OnCharge != nil {
		c.OnCharge(ChargeWire, n, bind)
	}
}

// MeterSyscallCount reports the syscalls charged since the last ResetMeters.
func (c *CostModel) MeterSyscallCount() int64 { return c.meterSyscalls }

// MeterCopiedBytes reports the bytes of copy work priced since the last
// ResetMeters — every site that charges CostModel.Copy, machine-wide.
func (c *CostModel) MeterCopiedBytes() int64 { return c.meterCopied }

// ResetMeters zeroes the charged-work meter.
func (c *CostModel) ResetMeters() { c.meterCopied, c.meterSyscalls = 0, 0 }

// DiskTransfer returns the media transfer cost for n bytes (positioning
// excluded).
func (c *CostModel) DiskTransfer(n int) time.Duration {
	return time.Duration(int64(n) * c.DiskPSPerByte / 1000)
}

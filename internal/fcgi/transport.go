package fcgi

import (
	"time"

	"iolite/internal/ipcsim"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
)

// The transport layer decouples the worker pool from the channel its
// records ride on. PR 3 hardwired the one boundary it modeled — a pipe
// pair to an in-process worker; a Transport turns that wiring into an
// interface so the same pool, mux, and framing run workers behind pipe
// IPC, loopback TCP, or sockets to a different machine ("Isolate First,
// Then Share": web tiers on isolated machines sharing data only through
// explicit channels).
//
// The capability that changes across transports is the payload mode of
// the response direction:
//
//	transport     ref-requested payloads     copy charge per payload byte
//	pipe          by reference (WireRef)     0
//	sock-local    by reference (WireRef)     0 (plus per-packet protocol work)
//	sock-remote   degrade (WireBoundary)     exactly 1 — the machine boundary
//
// Sealed aggregates cannot cross machines by reference, so a remote
// transport transparently degrades ref-requested payloads to the single
// gather copy into the socket send buffer; the receiving machine still
// reads them zero-copy from early-demultiplexed buffers. The request
// direction is always WireCopy (requests are tiny). Channel wiring itself
// is uncharged setup-time plumbing, like Pipe2.

// Default link parameters for the socket transports: an effectively free
// loopback, and the 1 Gb/s switched LAN a worker tier would sit behind.
const (
	LoopbackBps   = int64(40_000_000_000)
	LoopbackDelay = 5 * time.Microsecond
	LANBps        = int64(1_000_000_000)
	LANDelay      = 50 * time.Microsecond
)

// Send-window autotuning bounds. A worker channel's send window must hold
// one full mux depth's worth of in-flight responses, or admission becomes
// window-starved and trickles records into the transport in sub-MSS
// pieces; anything much beyond that only pins socket-buffer memory.
const (
	// TypicalRecordBytes is the assumed response-record payload when the
	// pool doesn't know better (the experiments' default document size).
	TypicalRecordBytes = 16 << 10
	// MinWindow is the floor (the paper's client-socket size); MaxWindow
	// caps very deep pools.
	MinWindow = 64 << 10
	MaxWindow = 1 << 20
)

// AutoWindow sizes a worker-channel send window from the mux depth and the
// typical response record: depth full records (payload + framing) can be
// in flight before a writer blocks, clamped to [MinWindow, MaxWindow].
// This replaces the hardwired 256 KB constant the first socket transports
// shipped with — deep pools get the window they need, shallow ones stop
// overpaying.
func AutoWindow(depth, typicalRecord int) int {
	if depth <= 0 {
		depth = 8
	}
	if typicalRecord <= 0 {
		typicalRecord = TypicalRecordBytes
	}
	w := depth * (typicalRecord + 2*HeaderLen)
	if w < MinWindow {
		return MinWindow
	}
	if w > MaxWindow {
		return MaxWindow
	}
	return w
}

// WindowTuner is implemented by transports whose channel send windows
// should scale with the pool that rides them; NewWorkerPool calls it with
// the pool's mux depth and typical response size before connecting
// workers. Explicitly configured windows (Tss > 0) win over tuning.
type WindowTuner interface {
	TuneWindow(depth, typicalRecord int)
}

// Channel is one established worker channel: the worker process the
// transport created, the machine it runs on, and a framed Conn on each
// side.
type Channel struct {
	// WorkerM is the machine the worker process runs on (the pool's own
	// machine for local transports).
	WorkerM *kernel.Machine
	// WorkerProc is the freshly created worker process.
	WorkerProc *kernel.Process
	// WorkerConn reads requests and writes responses (the Serve side).
	WorkerConn *Conn
	// ServerConn writes requests and reads responses (the Mux side).
	ServerConn *Conn
}

// Transport produces worker channels for a pool: dial/accept a framed fd
// pair plus the payload-mode capabilities each direction supports.
type Transport interface {
	// Label names the transport in figures and stats
	// ("pipe", "sock-local", "sock-remote").
	Label() string
	// RefPayloads reports whether a ref-requested pool's response
	// payloads cross the channel by reference (zero payload copies).
	// False means they degrade to copies at the machine boundary.
	RefPayloads() bool
	// Connect establishes one worker channel: it creates the worker
	// process and wires a framed channel between it and the pool's
	// server process. id labels the channel; name names the worker
	// process. Wiring is uncharged (setup-time plumbing) and is also how
	// supervision re-establishes a crashed worker's channel mid-run.
	Connect(id int, name string) Channel
}

// PipeTransport is PR 3's wiring as a Transport: workers as processes on
// the pool's own machine, one pipe pair per worker (copy-mode request
// pipe, copy- or reference-mode response pipe).
type PipeTransport struct {
	M      *kernel.Machine
	Server *kernel.Process
	// Ref selects reference-mode response pipes.
	Ref bool
	// WorkerMem is each worker process's private memory (default 2 MB).
	WorkerMem int
}

// NewPipeTransport wires workers over pipe pairs on m.
func NewPipeTransport(m *kernel.Machine, server *kernel.Process, ref bool, workerMem int) *PipeTransport {
	return &PipeTransport{M: m, Server: server, Ref: ref, WorkerMem: workerMem}
}

func (t *PipeTransport) Label() string     { return "pipe" }
func (t *PipeTransport) RefPayloads() bool { return t.Ref }

func (t *PipeTransport) Connect(id int, name string) Channel {
	m := t.M
	mem := t.WorkerMem
	if mem <= 0 {
		mem = 2 << 20
	}
	wp := m.NewProcess(name, mem)
	respPipe, respWire := ipcsim.ModeCopy, WireCopy
	if t.Ref {
		respPipe, respWire = ipcsim.ModeRef, WireRef
	}
	reqR, reqW := m.Pipe2(wp, t.Server, ipcsim.ModeCopy)
	respR, respW := m.Pipe2(t.Server, wp, respPipe)
	return Channel{
		WorkerM:    m,
		WorkerProc: wp,
		WorkerConn: NewConnModes(m, wp, reqR, respW, id, WireCopy, respWire),
		ServerConn: NewConnModes(m, t.Server, respR, reqW, id, respWire, WireCopy),
	}
}

// SocketTransport runs workers as processes reached over TCP sockets:
// either on the pool's own machine behind a loopback link (sock-local) or
// on a separate worker machine across a LAN link (sock-remote). Records
// frame over the socket exactly as they do over pipes; only the payload
// mode changes with the topology (see the package table above).
type SocketTransport struct {
	M      *kernel.Machine
	Server *kernel.Process
	// WorkerMachine hosts the worker processes; == M for sock-local.
	WorkerMachine *kernel.Machine
	// Link connects the two hosts (a loopback link for sock-local).
	Link *netsim.Link
	// Ref requests reference-mode response payloads; they are honored on
	// a same-machine socket and degraded to the boundary copy on a
	// remote one.
	Ref bool
	// WorkerMem is each worker process's private memory (default 2 MB).
	WorkerMem int
	// Tss is an explicit socket send buffer size per direction; 0 (the
	// default) autotunes it with AutoWindow from Depth and TypicalRecord.
	// Worker channels are long-lived, deliberately tuned server-to-server
	// connections, not the paper's 64 KB client sockets: the window must
	// hold a full mux depth's worth of in-flight responses, or admission
	// becomes window-starved and trickles records into the transport in
	// sub-MSS pieces.
	Tss int
	// Depth and TypicalRecord feed AutoWindow when Tss is 0; the pool
	// sets them through TuneWindow.
	Depth         int
	TypicalRecord int
}

// NewLoopbackTransport wires workers behind loopback TCP on m: same
// machine, same payload-mode capabilities as pipes, but every record pays
// the per-packet protocol path — the first installment of the LAN tax.
func NewLoopbackTransport(m *kernel.Machine, server *kernel.Process, ref bool, workerMem int) *SocketTransport {
	link := netsim.NewLink(m.Eng, m.Host, m.Host, LoopbackBps, LoopbackDelay)
	return &SocketTransport{M: m, Server: server, WorkerMachine: m, Link: link, Ref: ref, WorkerMem: workerMem}
}

// NewRemoteTransport wires workers as processes on worker machine wm,
// reached from m over link — the distributed-FastCGI topology.
func NewRemoteTransport(m *kernel.Machine, server *kernel.Process, wm *kernel.Machine, link *netsim.Link, ref bool, workerMem int) *SocketTransport {
	return &SocketTransport{M: m, Server: server, WorkerMachine: wm, Link: link, Ref: ref, WorkerMem: workerMem}
}

// NewLANTransport builds a remote transport on a freshly created worker
// machine connected by the default 1 Gb/s, 50 µs LAN link — the standard
// distributed-worker topology. It returns the transport and the worker
// machine (callers measure its CPU separately).
func NewLANTransport(m *kernel.Machine, server *kernel.Process, ref bool, workerMem int, hostName string) (*SocketTransport, *kernel.Machine) {
	// The worker machine inherits the server machine's offload setting so
	// both ends of the link run the same packet economy.
	wm := kernel.NewMachine(m.Eng, m.Costs, kernel.Config{HostName: hostName, Offload: m.Host.Offload()})
	link := netsim.NewLink(m.Eng, m.Host, wm.Host, LANBps, LANDelay)
	return NewRemoteTransport(m, server, wm, link, ref, workerMem), wm
}

// TuneWindow records the pool's mux depth and typical response size for
// send-window autotuning (no-op once an explicit Tss is set).
func (t *SocketTransport) TuneWindow(depth, typicalRecord int) {
	t.Depth = depth
	if typicalRecord > 0 {
		t.TypicalRecord = typicalRecord
	}
}

// Window reports the send window new channels will get.
func (t *SocketTransport) Window() int {
	if t.Tss > 0 {
		return t.Tss
	}
	return AutoWindow(t.Depth, t.TypicalRecord)
}

// Remote reports whether workers run on a different machine than the
// pool's server process.
func (t *SocketTransport) Remote() bool { return t.WorkerMachine != t.M }

func (t *SocketTransport) Label() string {
	if t.Remote() {
		return "sock-remote"
	}
	return "sock-local"
}

func (t *SocketTransport) RefPayloads() bool { return t.Ref && !t.Remote() }

func (t *SocketTransport) Connect(id int, name string) Channel {
	wm := t.WorkerMachine
	mem := t.WorkerMem
	if mem <= 0 {
		mem = 2 << 20
	}
	wp := wm.NewProcess(name, mem)
	// The worker side gets the reference-mode endpoint only when its
	// sealed buffers may legally cross: on the same machine.
	opts := netsim.ConnOpts{Tss: t.Window(), ServerRefMode: t.Ref && !t.Remote()}
	sfd, wfd := kernel.SocketPair(t.M, t.Server, wm, wp, t.Link, opts)
	respWire := WireCopy
	if t.Ref {
		if t.Remote() {
			respWire = WireBoundary
		} else {
			respWire = WireRef
		}
	}
	return Channel{
		WorkerM:    wm,
		WorkerProc: wp,
		WorkerConn: NewConnModes(wm, wp, wfd, wfd, id, WireCopy, respWire),
		ServerConn: NewConnModes(t.M, t.Server, sfd, sfd, id, respWire, WireCopy),
	}
}

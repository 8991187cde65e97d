package netsim

import "iolite/internal/sim"

// Listener accepts connections at a server host.
type Listener struct {
	host    *Host
	backlog []*Conn
	wait    sim.WaitQueue
	closed  bool
	notify  func()

	accepted int64
}

// NewListener creates a listener on h.
func NewListener(h *Host) *Listener {
	return &Listener{host: h}
}

// Accept blocks until a connection arrives and returns it (nil after
// Close).
func (l *Listener) Accept(p *sim.Proc) *Conn {
	for len(l.backlog) == 0 {
		if l.closed {
			return nil
		}
		l.wait.Wait(p)
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	l.accepted++
	return c
}

// Close stops the listener; blocked Accepts return nil.
func (l *Listener) Close() {
	l.closed = true
	l.wait.Wake(-1)
	if l.notify != nil {
		l.notify()
	}
}

// Pending reports how many connections are queued awaiting Accept.
func (l *Listener) Pending() int { return len(l.backlog) }

// Closed reports whether the listener has shut down.
func (l *Listener) Closed() bool { return l.closed }

// SetNotify registers fn to fire when a connection lands in the backlog or
// the listener closes — the acceptable-readiness hook.
func (l *Listener) SetNotify(fn func()) { l.notify = fn }

// Accepted reports how many connections have been accepted.
func (l *Listener) Accepted() int64 { return l.accepted }

// Wire establishes a connection between two hosts without Dial's handshake
// charges or latency — the setup-time sibling of Dial, for process plumbing
// wired outside measurement exactly like pipes (pre-established worker
// channels, long-lived tier interconnects). client is the end that would
// have dialed; server receives the endpoint ConnOpts.ServerRefMode
// configures. All traffic on the returned connection is charged normally.
func Wire(client, server *Host, link *Link, opts ConnOpts) *Conn {
	return newConn(client, server, link, opts)
}

// Dial establishes a connection from client host over link to the listener:
// one round trip of handshake latency, with connection-establishment CPU
// charged to both ends (§5: TCP setup dominates small nonpersistent
// transfers). A closed listener refuses the connection (nil — the caller's
// ECONNREFUSED); previously the dial enqueued a connection nothing would
// ever accept.
func Dial(p *sim.Proc, client *Host, link *Link, lst *Listener, opts ConnOpts) *Conn {
	if lst.closed {
		return nil
	}
	client.Use(p, client.costs.TCPSetup)
	// SYN travels to the server...
	p.Sleep(link.delay)
	conn := newConn(client, lst.host, link, opts)
	srv := lst.host
	srv.charge(srv.costs.TCPSetup, func() {
		if lst.closed {
			return // RST: the listener vanished while the SYN was in flight
		}
		lst.backlog = append(lst.backlog, conn)
		lst.wait.Wake(1)
		if lst.notify != nil {
			lst.notify()
		}
	})
	// ...and the SYN-ACK returns before the client may send.
	p.Sleep(link.delay)
	return conn
}

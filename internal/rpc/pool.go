package rpc

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/vfs"
)

// Pool is a vfs.FS over a fixed set of connections to ONE storage node.
// A single Client serializes requests on its connection, so a reader
// fanning out concurrent frame fetches would convoy behind one wire; the
// pool spreads calls round-robin across size independent connections
// while presenting the same FS surface.
//
// Connections are dialed lazily (DialLazy), so constructing a pool to a
// down node succeeds; each call then fails under the member client's
// retry policy, wrapping vfs.ErrBackendDown once retries exhaust. Files
// stay bound to the connection that opened them, which is safe because
// the server's handle table is per-process: the handle remains valid even
// if that member redials.
//
// A watch long-poll holds its connection for the whole poll, so it never
// rides a member: watches have connections of their own, which pick never
// returns — dialed lazily, one per concurrent watch, reused once idle.
type Pool struct {
	clients []*Client
	next    atomic.Uint64

	addr   string
	dialer Dialer

	mu sync.Mutex // guards the fields below
	// What a new watch connection is set up with: the members' settings as
	// of the last Set call.
	policy RetryPolicy
	tenant string
	reg    *metrics.Registry

	watches []*Client // every watch connection made so far
	idle    []*Client // those no watch is riding
	closed  bool
}

var _ vfs.FS = (*Pool)(nil)

// NewPool returns a pool of size lazy connections to addr through dialer
// (nil means plain TCP) under the given retry policy. size values below 1
// behave as 1.
func NewPool(addr string, size int, dialer Dialer, policy RetryPolicy) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		clients: make([]*Client, size),
		addr:    addr, dialer: dialer, policy: policy, reg: metrics.Default,
	}
	for i := range p.clients {
		p.clients[i] = DialLazy(addr, dialer, policy)
	}
	return p
}

// pick returns the next member connection, round-robin.
func (p *Pool) pick() *Client {
	n := p.next.Add(1)
	return p.clients[(n-1)%uint64(len(p.clients))]
}

// SetTenant identifies the traffic of every connection, watch connections
// included, as tenant (see Client.SetTenant). Connections that cannot reach
// the node right now still record the identity and re-declare it on their
// next successful redial, so one down member does not abort pool-wide
// identification; the first hard failure is still reported.
func (p *Pool) SetTenant(tenant string) error {
	p.mu.Lock()
	p.tenant = tenant
	p.mu.Unlock()
	var first error
	for _, c := range p.conns() {
		if err := c.SetTenant(tenant); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetRetryPolicy replaces the retry policy on every connection, watch
// connections included.
func (p *Pool) SetRetryPolicy(pol RetryPolicy) {
	p.mu.Lock()
	p.policy = pol
	p.mu.Unlock()
	for _, c := range p.conns() {
		c.SetRetryPolicy(pol)
	}
}

// SetMetrics points every connection's counters at reg, watch connections
// included.
func (p *Pool) SetMetrics(reg *metrics.Registry) {
	p.mu.Lock()
	p.reg = reg
	p.mu.Unlock()
	for _, c := range p.conns() {
		c.SetMetrics(reg)
	}
}

// FetchClusterTable retrieves the node's placement table via one member.
func (p *Pool) FetchClusterTable() ([]byte, uint64, error) {
	return p.pick().FetchClusterTable()
}

// PushClusterTable installs a placement table on the node via one member.
func (p *Pool) PushClusterTable(data []byte, version uint64) error {
	return p.pick().PushClusterTable(data, version)
}

// Close closes every member and watch connection, returning the first
// error. Like Client.Close it waits for calls in flight, a parked watch
// included; later watches return ErrClientClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	var first error
	for _, c := range p.conns() {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Create implements vfs.FS.
func (p *Pool) Create(name string) (vfs.File, error) { return p.pick().Create(name) }

// Open implements vfs.FS.
func (p *Pool) Open(name string) (vfs.File, error) { return p.pick().Open(name) }

// Stat implements vfs.FS.
func (p *Pool) Stat(name string) (vfs.FileInfo, error) { return p.pick().Stat(name) }

// ReadDir implements vfs.FS.
func (p *Pool) ReadDir(name string) ([]vfs.FileInfo, error) { return p.pick().ReadDir(name) }

// MkdirAll implements vfs.FS.
func (p *Pool) MkdirAll(name string) error { return p.pick().MkdirAll(name) }

// Remove implements vfs.FS.
func (p *Pool) Remove(name string) error { return p.pick().Remove(name) }

// Rename implements vfs.FS.
func (p *Pool) Rename(oldname, newname string) error { return p.pick().Rename(oldname, newname) }

// conns returns every connection the pool owns, members and watch
// connections alike, for the calls that configure or close them all.
func (p *Pool) conns() []*Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(append([]*Client(nil), p.clients...), p.watches...)
}

// WatchFile long-polls name (see Client.WatchFile) on a watch connection,
// so the poll parks nothing demand traffic is routed to.
func (p *Pool) WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, 0, false, ErrClientClosed
	}
	var c *Client
	if n := len(p.idle); n > 0 {
		c, p.idle = p.idle[n-1], p.idle[:n-1]
	} else {
		c = DialLazy(p.addr, p.dialer, p.policy)
		c.tenant, c.m = p.tenant, newClientMetrics(p.reg)
		p.watches = append(p.watches, c)
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.idle = append(p.idle, c)
		p.mu.Unlock()
	}()
	return c.WatchFile(name, lastCRC, timeout)
}

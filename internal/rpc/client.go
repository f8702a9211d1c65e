package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ErrClientClosed is returned by every call issued after Close.
var ErrClientClosed = errors.New("rpc: client closed")

// Dialer connects to a storage-node address. Custom dialers let tests and
// the fault harness wrap the transport (e.g. faultfs.WrapConn).
type Dialer func(addr string) (net.Conn, error)

// Client is a vfs.FS backed by one storage node. It is safe for concurrent
// use, and concurrent calls do not queue behind each other: a connection
// carries one call at a time, as the wire protocol has it, and the client
// keeps as many connections as it has calls in flight. Every call takes an
// idle connection, or dials a new one, and gives it back when it returns, so
// a parked WatchFile never holds a connection a demand call is waiting for.
// A client made by NewClient has no address to dial: it has exactly one
// connection, and its calls take turns on it.
//
// A dialed client (Dial/DialWith/DialLazy) runs every call under its
// RetryPolicy: per-attempt connection deadlines, and redial-and-retry with
// bounded exponential backoff when that is provably safe (see RetryPolicy
// for the idempotency rules). The server's file-handle table is
// per-process, not per-connection, so an open handle is valid on every
// connection to the same node, across reconnects included. Retries are
// counted under "rpc.client.retries", suppressed unsafe retries under
// "rpc.client.retries_suppressed", and backoff sleeps under the
// "rpc.client.retry.backoff_ns" histogram.
//
// When retries are exhausted (or redial fails) the returned error wraps
// vfs.ErrBackendDown, so layers above can degrade instead of hanging.
// Close waits for the calls in flight to finish, then closes every
// connection; later calls return ErrClientClosed.
type Client struct {
	addr string // non-empty iff dialed (enables dialing and redial retry)
	dial Dialer
	turn sync.Mutex // with no addr, calls take turns on the one connection

	mu     sync.Mutex // guards the fields below
	idle   []*conn    // connections no call holds
	tenant string     // declared on each connection before its next call
	closed bool
	policy RetryPolicy
	rng    *rand.Rand
	m      clientMetrics
	calls  sync.WaitGroup // calls in flight; Close waits for them
}

// conn is one connection to the node and the tenant it has declared.
type conn struct {
	net.Conn
	tenant string
}

// clientMetrics are the client-side request/response/error/retry handles.
type clientMetrics struct {
	requests   *metrics.Counter
	responses  *metrics.Counter
	errors     *metrics.Counter
	retries    *metrics.Counter
	suppressed *metrics.Counter
	bytesOut   *metrics.Counter
	bytesIn    *metrics.Counter
	latency    *metrics.Histogram
	backoffNS  *metrics.Histogram
}

func newClientMetrics(reg *metrics.Registry) clientMetrics {
	return clientMetrics{
		requests:   reg.Counter("rpc.client.requests"),
		responses:  reg.Counter("rpc.client.responses"),
		errors:     reg.Counter("rpc.client.errors"),
		retries:    reg.Counter("rpc.client.retries"),
		suppressed: reg.Counter("rpc.client.retries_suppressed"),
		bytesOut:   reg.Counter("rpc.client.bytes_sent"),
		bytesIn:    reg.Counter("rpc.client.bytes_received"),
		latency:    reg.Histogram("rpc.client.call.ns"),
		backoffNS:  reg.Histogram("rpc.client.retry.backoff_ns"),
	}
}

var _ vfs.FS = (*Client)(nil)

// Dial connects to a storage node with the default retry policy.
func Dial(addr string) (*Client, error) { return DialWith(addr, nil, DefaultRetryPolicy()) }

// DialWith connects to a storage node through dialer (nil means plain TCP)
// under the given retry policy.
func DialWith(addr string, dialer Dialer, policy RetryPolicy) (*Client, error) {
	c := DialLazy(addr, dialer, policy)
	nc, err := c.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c.idle = []*conn{{Conn: nc}}
	return c, nil
}

// DialLazy returns a dialed client without connecting yet: the first call
// dials under the retry policy, exactly as if an earlier attempt had torn a
// connection down. Cluster fabrics use it so constructing a multi-node
// client succeeds while some nodes are down — the node's failure surfaces
// (wrapping vfs.ErrBackendDown once retries exhaust) only on calls that
// actually route to it.
func DialLazy(addr string, dialer Dialer, policy RetryPolicy) *Client {
	if dialer == nil {
		dialer = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	return &Client{
		addr: addr, dial: dialer,
		policy: policy,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		m:      newClientMetrics(metrics.Default),
	}
}

// Pool is the client type under its old name.
//
// Deprecated: use Client. Pool is removed with NewPool.
type Pool = Client

// NewPool returns DialLazy(addr, dialer, policy).
//
// Deprecated: use DialLazy. size is ignored: a client already keeps a
// connection per call in flight. NewPool is removed with the benchmark
// harness's next revision.
func NewPool(addr string, size int, dialer Dialer, policy RetryPolicy) *Client {
	return DialLazy(addr, dialer, policy)
}

// NewClient wraps an existing connection (useful for tests over pipes).
// The client fails fast on transport errors — with no dial address there
// is nothing to redial — but still applies the policy's call deadline.
func NewClient(nc net.Conn) *Client {
	return &Client{
		idle:   []*conn{{Conn: nc}},
		policy: DefaultRetryPolicy(),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		m:      newClientMetrics(metrics.Default),
	}
}

// SetMetrics points the client's counters at reg (metrics.Default by
// default; nil disables collection). Call before issuing requests.
func (c *Client) SetMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = newClientMetrics(reg)
}

// SetTenant identifies this client's traffic as belonging to tenant: the
// node accounts (and, when configured, rate-limits) its reads under
// rpc.tenant.<name>.*. It declares the name on one connection now and
// returns that call's error. The identity sticks to the client, not the
// connection: every other connection, a redialed one included, declares it
// before its next call, so per-tenant accounting survives transport blips.
// Identifying is idempotent; the last name sent wins.
func (c *Client) SetTenant(tenant string) error {
	req := request(opIdent)
	req.String(tenant)
	c.mu.Lock()
	c.tenant = tenant
	c.mu.Unlock()
	_, err := c.call(req)
	return err
}

// ident declares tenant on pc before a call. Callers have already armed the
// call deadline. The call's request has not been sent yet, so a failure here
// is always safe to retry.
func ident(pc *conn, tenant string, m clientMetrics) error {
	req := request(opIdent)
	req.String(tenant)
	raw := sealFrame(req, 0)
	if err := sendFrame(pc, raw, nil); err != nil {
		return fmt.Errorf("rpc: ident send: %w", err)
	}
	m.bytesOut.Add(int64(len(raw)))
	payload, err := readFrame(pc, nil)
	if err != nil {
		return fmt.Errorf("rpc: ident receive: %w", err)
	}
	m.bytesIn.Add(int64(len(payload)) + frameHeader)
	if err := decodeStatus(xdr.NewReader(payload)); err != nil {
		return err
	}
	pc.tenant = tenant
	return nil
}

// FetchClusterTable retrieves the node's cluster placement table and its
// version. A node with no table returns (nil, 0, nil).
func (c *Client) FetchClusterTable() ([]byte, uint64, error) {
	r, err := c.call(request(opTableGet))
	if err != nil {
		return nil, 0, err
	}
	version := r.Uint64()
	data := r.VarOpaque()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if len(data) == 0 {
		return nil, version, nil
	}
	return data, version, nil
}

// PushClusterTable installs a placement table on the node. The node
// rejects versions older than what it already holds.
func (c *Client) PushClusterTable(data []byte, version uint64) error {
	req := request(opTablePut)
	req.Uint64(version)
	req.VarOpaque(data)
	_, err := c.call(req)
	return err
}

// WatchFile long-polls name on the node: it returns when the file's
// CRC32C differs from lastCRC (changed=true, with the new content and CRC)
// or when the timeout elapses (changed=false). The poll runs server-side —
// one round trip parks on the node instead of hammering reads over the
// wire — which is what makes remote live-head tailing cheap. A missing
// file reads as empty with CRC 0. The poll parks only the connection it
// holds; other calls take other connections.
//
// The requested timeout is clamped to half the policy's CallTimeout so the
// server's reply always beats the client's connection deadline.
func (c *Client) WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	c.mu.Lock()
	t := c.policy.CallTimeout
	c.mu.Unlock()
	if t > 0 && timeout > t/2 {
		timeout = t / 2
	}
	if timeout < 0 {
		timeout = 0
	}
	req := request(opWatch)
	req.String(name)
	req.Uint32(lastCRC)
	req.Uint32(uint32(timeout / time.Millisecond))
	r, err := c.call(req)
	if err != nil {
		return nil, 0, false, err
	}
	changed := r.Uint32() != 0
	crc := r.Uint32()
	data := r.VarOpaque()
	if err := r.Err(); err != nil {
		return nil, 0, false, err
	}
	if !changed {
		return nil, lastCRC, false, nil
	}
	if len(data) == 0 {
		data = nil
	}
	return data, crc, true, nil
}

// SetRetryPolicy replaces the retry policy for subsequent calls.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
}

// Close shuts the client down. It waits for the calls in flight (their
// redial/backoff loops and parked watches included) to finish, and a
// connection such a call dialed is closed when it returns, never parked.
// Calls issued after Close return ErrClientClosed; so does a second Close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	var first error
	for _, pc := range idle {
		if err := pc.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.calls.Wait()
	return first
}

// call sends one request and decodes the status word of the response.
func (c *Client) call(req *xdr.Writer) (*xdr.Reader, error) { return c.callWith(req, nil, nil) }

// inflight is one call's hold on its client: the connection it rides (nil
// until dialed, and again after an attempt tears it down) and the settings
// it took when it began.
type inflight struct {
	pc     *conn
	pol    RetryPolicy
	tenant string
	m      clientMetrics
}

// callWith is call for the two requests that move file data, which goes
// between the wire and the caller's slice without passing through a message
// buffer. body, for a write, goes out behind req (which must end with body's
// length word); it is only read. into, for a read, is where the reply's data
// lands (see readReply), the reader returned holding just the fields before
// it; after a failed call into holds garbage. Neither is retained.
func (c *Client) callWith(req *xdr.Writer, body, into []byte) (*xdr.Reader, error) {
	if c.addr == "" {
		c.turn.Lock()
		defer c.turn.Unlock()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.calls.Add(1)
	defer c.calls.Done()
	call := inflight{pol: c.policy, tenant: c.tenant, m: c.m}
	if n := len(c.idle); n > 0 {
		call.pc, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	defer c.release(&call)

	call.m.requests.Inc()
	start := time.Now()
	raw := sealFrame(req, xdrPadded(len(body)))
	op := binary.BigEndian.Uint32(raw[frameHeader:])
	payload, err := c.exchange(&call, op, raw, body, into)
	if err != nil {
		call.m.errors.Inc()
		return nil, err
	}
	call.m.responses.Inc()
	call.m.latency.Observe(time.Since(start).Nanoseconds())
	r := xdr.NewReader(payload)
	if err := decodeStatus(r); err != nil {
		call.m.errors.Inc()
		return nil, err
	}
	if op == opIdent {
		call.pc.tenant = call.tenant
	}
	return r, nil
}

// release gives a call's connection back to the idle list, or closes it
// when the client was closed while the call ran.
func (c *Client) release(call *inflight) {
	if call.pc == nil {
		return
	}
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.idle = append(c.idle, call.pc)
	}
	c.mu.Unlock()
	if closed {
		call.pc.Close()
	}
}

// exchange performs one framed round trip under the call's retry policy.
// Failed attempts tear the connection down; when retrying is safe (see
// RetryPolicy) the next attempt redials.
func (c *Client) exchange(call *inflight, op uint32, req, body, into []byte) ([]byte, error) {
	pol := call.pol
	var backoffSpent time.Duration
	for attempt := 1; ; attempt++ {
		sent, payload, err := c.attempt(call, op, req, body, into)
		if err == nil {
			return payload, nil
		}
		if call.pc != nil {
			// The conn's state is indeterminate mid-frame: discard it.
			call.pc.Close()
			call.pc = nil
		}
		if c.addr == "" {
			return nil, err // wraps an existing conn; nothing to redial
		}
		if sent && !idempotentOp(op) {
			// The full frame reached the kernel and the reply was lost:
			// the server may have applied the op, so re-sending could
			// double-apply it. Fail with the outcome unknown.
			call.m.suppressed.Inc()
			return nil, fmt.Errorf("rpc: %s reply lost after send; op is not idempotent, not retried: %w",
				opName(op), err)
		}
		if attempt >= pol.MaxAttempts {
			return nil, fmt.Errorf("rpc: %s failed after %d attempts: %w: %w",
				opName(op), attempt, vfs.ErrBackendDown, err)
		}
		d := c.backoffDelay(pol, attempt)
		if pol.BackoffBudget > 0 && backoffSpent+d > pol.BackoffBudget {
			return nil, fmt.Errorf("rpc: %s exhausted its %v backoff budget: %w: %w",
				opName(op), pol.BackoffBudget, vfs.ErrBackendDown, err)
		}
		backoffSpent += d
		call.m.backoffNS.Observe(int64(d))
		if d > 0 {
			time.Sleep(d)
		}
		call.m.retries.Inc()
	}
}

// attempt performs a single framed round trip, dialing first if the call
// holds no connection. A connection whose declared tenant is not the
// call's declares it before the request goes out (SetTenant's own request
// is the declaration). sent reports whether the request frame was
// completely handed to the transport — when false the server provably
// never parsed the request, so any op is safe to re-send.
func (c *Client) attempt(call *inflight, op uint32, req, body, into []byte) (sent bool, payload []byte, err error) {
	if call.pc == nil {
		if c.addr == "" {
			return false, nil, fmt.Errorf("rpc: connection lost: %w", vfs.ErrBackendDown)
		}
		nc, derr := c.dial(c.addr)
		if derr != nil {
			return false, nil, fmt.Errorf("rpc: redial %s: %w", c.addr, derr)
		}
		call.pc = &conn{Conn: nc}
	}
	pc := call.pc
	if t := call.pol.CallTimeout; t > 0 {
		pc.SetDeadline(time.Now().Add(t))
		defer pc.SetDeadline(time.Time{})
	}
	if op != opIdent && pc.tenant != call.tenant {
		if ierr := ident(pc, call.tenant, call.m); ierr != nil {
			return false, nil, ierr
		}
	}
	if werr := sendFrame(pc, req, body); werr != nil {
		return false, nil, fmt.Errorf("rpc: send: %w", werr)
	}
	call.m.bytesOut.Add(int64(len(req) + xdrPadded(len(body))))
	payload, received, rerr := readReply(pc, into)
	if rerr != nil {
		return true, nil, fmt.Errorf("rpc: receive: %w", rerr)
	}
	call.m.bytesIn.Add(int64(received))
	return true, payload, nil
}

func request(op uint32) *xdr.Writer {
	w := newFrame(256)
	w.Uint32(op)
	return w
}

func (c *Client) openLike(op uint32, name string) (vfs.File, error) {
	req := request(op)
	req.String(name)
	r, err := c.call(req)
	if err != nil {
		return nil, err
	}
	fd := r.Uint32()
	size := r.Int64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &remoteFile{c: c, name: vfs.Clean(name), fd: fd, size: size, opened: size}, nil
}

// Create implements vfs.FS.
func (c *Client) Create(name string) (vfs.File, error) { return c.openLike(opCreate, name) }

// Open implements vfs.FS.
func (c *Client) Open(name string) (vfs.File, error) { return c.openLike(opOpen, name) }

// Stat implements vfs.FS.
func (c *Client) Stat(name string) (vfs.FileInfo, error) {
	req := request(opStat)
	req.String(name)
	r, err := c.call(req)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	info := decodeInfo(r)
	return info, r.Err()
}

// ReadDir implements vfs.FS.
func (c *Client) ReadDir(name string) ([]vfs.FileInfo, error) {
	req := request(opReadDir)
	req.String(name)
	r, err := c.call(req)
	if err != nil {
		return nil, err
	}
	n := r.Uint32()
	entries := make([]vfs.FileInfo, 0, n)
	for i := uint32(0); i < n; i++ {
		entries = append(entries, decodeInfo(r))
	}
	return entries, r.Err()
}

// MkdirAll implements vfs.FS.
func (c *Client) MkdirAll(name string) error {
	req := request(opMkdirAll)
	req.String(name)
	_, err := c.call(req)
	return err
}

// Remove implements vfs.FS.
func (c *Client) Remove(name string) error {
	req := request(opRemove)
	req.String(name)
	_, err := c.call(req)
	return err
}

// Rename implements vfs.FS.
func (c *Client) Rename(oldname, newname string) error {
	req := request(opRename)
	req.String(oldname)
	req.String(newname)
	_, err := c.call(req)
	return err
}

// remoteFile is a handle on the server.
type remoteFile struct {
	c      *Client
	name   string
	fd     uint32
	size   int64
	opened int64 // size at open, from the open reply
	off    int64
	closed atomic.Bool // Close may race a ReadAt on another goroutine
}

func (f *remoteFile) Name() string { return f.name }

// OpenSize is the file's size as the open reply carried it, at no round
// trip: what a caller that has just opened the file wants. Size asks the
// node afresh.
func (f *remoteFile) OpenSize() int64 { return f.opened }

func (f *remoteFile) Size() int64 {
	req := request(opSize)
	req.Uint32(f.fd)
	r, err := f.c.call(req)
	if err != nil {
		return f.size // best effort: the size at open time
	}
	if s := r.Int64(); r.Err() == nil {
		f.size = s
	}
	return f.size
}

// ioChunk is the most file data one opRead or opWrite carries: larger reads
// and writes go as several calls, each well under the frame limit.
const ioChunk = MaxPayload / 4

func (f *remoteFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, vfs.ErrClosed
	}
	total := 0
	for total < len(p) {
		part := p[total:min(total+ioChunk, len(p))]
		req := request(opRead)
		req.Uint32(f.fd)
		req.Int64(off + int64(total))
		req.Uint32(uint32(len(part)))
		r, err := f.c.callWith(req, nil, part)
		if err != nil {
			return total, err
		}
		eof := r.Uint32() != 0
		n := int(r.Uint32()) // readReply has put that many bytes in part
		if err := r.Err(); err != nil {
			return total, err
		}
		total += n
		if eof || n < len(part) {
			return total, io.EOF
		}
	}
	return total, nil
}

func (f *remoteFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	if err == io.EOF && n > 0 {
		// Partial read before EOF: report the bytes now, EOF next call.
		return n, nil
	}
	return n, err
}

func (f *remoteFile) Write(p []byte) (int, error) {
	if f.closed.Load() {
		return 0, vfs.ErrClosed
	}
	total := 0
	// Chunk large writes under the frame limit.
	for total < len(p) {
		end := total + ioChunk
		if end > len(p) {
			end = len(p)
		}
		want := end - total
		req := request(opWrite)
		req.Uint32(f.fd)
		req.Uint32(uint32(want))
		r, err := f.c.callWith(req, p[total:end], nil)
		if err != nil {
			return total, err
		}
		n := int(r.Uint32())
		if err := r.Err(); err != nil {
			return total, err
		}
		total += n
		if n != want {
			return total, fmt.Errorf("rpc: short write %d of %d", n, want)
		}
	}
	return total, nil
}

func (f *remoteFile) Close() error {
	if f.closed.Swap(true) {
		return vfs.ErrClosed
	}
	req := request(opClose)
	req.Uint32(f.fd)
	_, err := f.c.call(req)
	return err
}

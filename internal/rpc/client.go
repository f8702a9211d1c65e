package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
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

// Client is a vfs.FS backed by a remote storage node. It is safe for
// concurrent use; requests are serialized over the single connection.
//
// A dialed client (Dial/DialWith, as opposed to NewClient over an existing
// connection) runs every call under its RetryPolicy: per-attempt
// connection deadlines, and redial-and-retry with bounded exponential
// backoff when that is provably safe (see RetryPolicy for the idempotency
// rules). The server's file-handle table is per-process, not
// per-connection, so open handles stay valid across a reconnect to the
// same node. Retries are counted under "rpc.client.retries", suppressed
// unsafe retries under "rpc.client.retries_suppressed", and backoff sleeps
// under the "rpc.client.retry.backoff_ns" histogram.
//
// When retries are exhausted (or redial fails) the returned error wraps
// vfs.ErrBackendDown, so layers above can degrade instead of hanging.
// Close waits for an in-flight call to finish, then closes the transport;
// later calls return ErrClientClosed.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn // nil after a transport teardown until the next redial
	addr   string   // non-empty iff dialed (enables redial retry)
	tenant string   // re-declared on every redial once SetTenant is called
	closed bool
	policy RetryPolicy
	dial   Dialer
	rng    *rand.Rand
	m      clientMetrics
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
	if dialer == nil {
		dialer = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	conn, err := dialer(addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := &Client{
		conn: conn, addr: addr, dial: dialer,
		policy: policy,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		m:      newClientMetrics(metrics.Default),
	}
	return c, nil
}

// DialLazy returns a dialed client without connecting yet: the first call
// redials under the retry policy, exactly as if an earlier attempt had
// torn the connection down. Cluster fabrics use it so constructing a
// multi-node client succeeds while some nodes are down — the node's
// failure surfaces (wrapping vfs.ErrBackendDown once retries exhaust)
// only on calls that actually route to it.
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

// NewClient wraps an existing connection (useful for tests over pipes).
// The client fails fast on transport errors — with no dial address there
// is nothing to redial — but still applies the policy's call deadline.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:   conn,
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
// rpc.tenant.<name>.*. The identity sticks to the client, not the
// connection — after a redial the next attempt re-declares it before
// resending the interrupted call, so per-tenant accounting survives
// transport blips. Identifying is idempotent; the last name sent wins.
func (c *Client) SetTenant(tenant string) error {
	req := request(opIdent)
	req.String(tenant)
	c.mu.Lock()
	c.tenant = tenant
	c.mu.Unlock()
	_, err := c.call(req)
	return err
}

// ident declares c.tenant on conn (a fresh redial). Callers hold c.mu and
// have already armed the call deadline. The real request has not been sent
// yet, so a failure here is always safe to retry.
func (c *Client) ident(conn net.Conn) error {
	req := request(opIdent)
	req.String(c.tenant)
	raw := sealFrame(req, 0)
	if err := sendFrame(conn, raw, nil); err != nil {
		return fmt.Errorf("rpc: ident send: %w", err)
	}
	c.m.bytesOut.Add(int64(len(raw)))
	payload, err := readFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("rpc: ident receive: %w", err)
	}
	c.m.bytesIn.Add(int64(len(payload)) + frameHeader)
	return decodeStatus(xdr.NewReader(payload))
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
// file reads as empty with CRC 0.
//
// The requested timeout is clamped to half the policy's CallTimeout so the
// server's reply always beats the client's connection deadline.
func (c *Client) WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	if t := c.policy.CallTimeout; t > 0 && timeout > t/2 {
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

// Close shuts the client down. It waits for an in-flight call (including
// its redial/backoff loop) to finish, so it never races the redial path or
// leaks a freshly dialed connection. Calls issued after Close return
// ErrClientClosed; so does a second Close.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// call sends one request and decodes the status word of the response.
func (c *Client) call(req *xdr.Writer) (*xdr.Reader, error) { return c.callWith(req, nil, nil) }

// callWith is call for the two requests that move file data, which goes
// between the wire and the caller's slice without passing through a message
// buffer. body, for a write, goes out behind req (which must end with body's
// length word); it is only read. into, for a read, is where the reply's data
// lands (see readReply), the reader returned holding just the fields before
// it; after a failed call into holds garbage. Neither is retained.
func (c *Client) callWith(req *xdr.Writer, body, into []byte) (*xdr.Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	c.m.requests.Inc()
	start := time.Now()
	raw := sealFrame(req, xdrPadded(len(body)))
	payload, err := c.exchange(binary.BigEndian.Uint32(raw[frameHeader:]), raw, body, into)
	if err != nil {
		c.m.errors.Inc()
		return nil, err
	}
	c.m.responses.Inc()
	c.m.latency.Observe(time.Since(start).Nanoseconds())
	r := xdr.NewReader(payload)
	if err := decodeStatus(r); err != nil {
		c.m.errors.Inc()
		return nil, err
	}
	return r, nil
}

// exchange performs one framed round trip under the retry policy. Failed
// attempts tear the connection down; when retrying is safe (see
// RetryPolicy) the next attempt redials. Callers hold c.mu.
func (c *Client) exchange(op uint32, req, body, into []byte) ([]byte, error) {
	pol := c.policy
	var backoffSpent time.Duration
	for attempt := 1; ; attempt++ {
		sent, payload, err := c.attempt(req, body, into)
		if err == nil {
			return payload, nil
		}
		if c.conn != nil {
			// The conn's state is indeterminate mid-frame: discard it.
			c.conn.Close()
			c.conn = nil
		}
		if c.addr == "" {
			return nil, err // wraps an existing conn; nothing to redial
		}
		if sent && !idempotentOp(op) {
			// The full frame reached the kernel and the reply was lost:
			// the server may have applied the op, so re-sending could
			// double-apply it. Fail with the outcome unknown.
			c.m.suppressed.Inc()
			return nil, fmt.Errorf("rpc: %s reply lost after send; op is not idempotent, not retried: %w",
				opName(op), err)
		}
		if attempt >= pol.MaxAttempts {
			return nil, fmt.Errorf("rpc: %s failed after %d attempts: %w: %w",
				opName(op), attempt, vfs.ErrBackendDown, err)
		}
		d := c.backoffDelay(attempt)
		if pol.BackoffBudget > 0 && backoffSpent+d > pol.BackoffBudget {
			return nil, fmt.Errorf("rpc: %s exhausted its %v backoff budget: %w: %w",
				opName(op), pol.BackoffBudget, vfs.ErrBackendDown, err)
		}
		backoffSpent += d
		c.m.backoffNS.Observe(int64(d))
		if d > 0 {
			time.Sleep(d)
		}
		c.m.retries.Inc()
	}
}

// attempt performs a single framed round trip, redialing first if the
// previous attempt tore the connection down. sent reports whether the
// request frame was completely handed to the transport — when false the
// server provably never parsed the request, so any op is safe to re-send.
func (c *Client) attempt(req, body, into []byte) (sent bool, payload []byte, err error) {
	fresh := false
	if c.conn == nil {
		if c.addr == "" {
			return false, nil, fmt.Errorf("rpc: connection lost: %w", vfs.ErrBackendDown)
		}
		conn, derr := c.dial(c.addr)
		if derr != nil {
			return false, nil, fmt.Errorf("rpc: redial %s: %w", c.addr, derr)
		}
		c.conn = conn
		fresh = true
	}
	conn := c.conn
	if t := c.policy.CallTimeout; t > 0 {
		conn.SetDeadline(time.Now().Add(t))
		defer conn.SetDeadline(time.Time{})
	}
	if fresh && c.tenant != "" {
		// Re-declare the tenant before the interrupted call goes out, so
		// the new connection's reads stay attributed. The request frame has
		// not been sent, so sent=false keeps any op retry-safe.
		if ierr := c.ident(conn); ierr != nil {
			return false, nil, ierr
		}
	}
	if werr := sendFrame(conn, req, body); werr != nil {
		return false, nil, fmt.Errorf("rpc: send: %w", werr)
	}
	c.m.bytesOut.Add(int64(len(req) + xdrPadded(len(body))))
	payload, received, rerr := readReply(conn, into)
	if rerr != nil {
		return true, nil, fmt.Errorf("rpc: receive: %w", rerr)
	}
	c.m.bytesIn.Add(int64(received))
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
	return &remoteFile{c: c, name: vfs.Clean(name), fd: fd, size: size}, nil
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
	off    int64
	closed bool
}

func (f *remoteFile) Name() string { return f.name }

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
	if f.closed {
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
	if f.closed {
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
	if f.closed {
		return vfs.ErrClosed
	}
	f.closed = true
	req := request(opClose)
	req.Uint32(f.fd)
	_, err := f.c.call(req)
	return err
}

package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ErrServerClosed is returned by Serve after Close: the expected way for
// an accept loop to end, not a failure.
var ErrServerClosed = errors.New("rpc: server closed")

// Server exposes one vfs.FS to remote clients.
//
// Close is graceful: it stops the accept loops, wakes idle connections,
// and waits — via a WaitGroup over the per-connection goroutines — until
// every in-flight request has been dispatched and its response written, so
// shutting a node down never drops a request that was already read off the
// wire.
type Server struct {
	fsys   vfs.FS
	logger *log.Logger
	m      serverMetrics

	mu      sync.Mutex
	nextFD  uint32
	handles map[uint32]vfs.File

	quotaMu    sync.Mutex
	quotaRate  float64 // read bytes/second per tenant (0 = unmetered)
	quotaBurst float64
	quotas     map[string]*tenantState

	connMu    sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup

	tableMu      sync.Mutex
	tableData    []byte // opaque cluster placement table (internal/placement JSON)
	tableVersion uint64

	watchPoll time.Duration // opWatch re-read cadence (0 = defaultWatchPoll)
}

// Watch-op bounds: the server re-reads the watched file every watchPoll
// while a long-poll is parked, and caps any single poll at maxWatchTimeout
// so a stuck client cannot pin a connection goroutine forever.
const (
	defaultWatchPoll = 2 * time.Millisecond
	maxWatchTimeout  = 60 * time.Second
)

// serverMetrics are the node-side request/response/error handles, plus a
// per-opcode request breakdown.
type serverMetrics struct {
	reg         *metrics.Registry // for per-tenant counters minted at ident time
	requests    *metrics.Counter
	responses   *metrics.Counter
	errors      *metrics.Counter
	connections *metrics.Counter
	bytesIn     *metrics.Counter
	bytesOut    *metrics.Counter
	latency     *metrics.Histogram
	throttleNS  *metrics.Histogram
	perOp       [opWatch + 1]*metrics.Counter
}

// opName names an opcode for metrics and logs.
func opName(op uint32) string {
	names := [...]string{
		opCreate: "create", opOpen: "open", opRead: "read", opWrite: "write",
		opClose: "close", opStat: "stat", opReadDir: "readdir",
		opMkdirAll: "mkdirall", opRemove: "remove", opSize: "size",
		opRename: "rename", opIdent: "ident",
		opTableGet: "tableget", opTablePut: "tableput",
		opWatch: "watch",
	}
	if op < uint32(len(names)) && names[op] != "" {
		return names[op]
	}
	return "unknown"
}

func newServerMetrics(reg *metrics.Registry) serverMetrics {
	m := serverMetrics{
		reg:         reg,
		requests:    reg.Counter("rpc.server.requests"),
		responses:   reg.Counter("rpc.server.responses"),
		errors:      reg.Counter("rpc.server.errors"),
		connections: reg.Counter("rpc.server.connections"),
		bytesIn:     reg.Counter("rpc.server.bytes_received"),
		bytesOut:    reg.Counter("rpc.server.bytes_sent"),
		latency:     reg.Histogram("rpc.server.dispatch.ns"),
		throttleNS:  reg.Histogram("rpc.server.throttle.ns"),
	}
	for op := opCreate; op <= opWatch; op++ {
		m.perOp[op] = reg.Counter("rpc.server.op." + opName(op))
	}
	return m
}

// NewServer returns a server over fsys. logger may be nil to disable
// logging.
func NewServer(fsys vfs.FS, logger *log.Logger) *Server {
	return &Server{
		fsys: fsys, logger: logger,
		m:         newServerMetrics(metrics.Default),
		handles:   map[uint32]vfs.File{},
		quotas:    map[string]*tenantState{},
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}
}

// SetMetrics points the server's counters at reg (metrics.Default by
// default; nil disables collection). Call before Serve.
func (s *Server) SetMetrics(reg *metrics.Registry) { s.m = newServerMetrics(reg) }

// SetWatchPoll sets how often a parked opWatch re-reads the watched file
// (defaultWatchPoll when zero). Call before Serve.
func (s *Server) SetWatchPoll(d time.Duration) { s.watchPoll = d }

// SetTenantQuota rate-limits read bytes per identified tenant (opIdent) to
// rate bytes/second with the given burst capacity. Zero rate disables
// metering; unidentified connections are never metered. Call before Serve.
//
// The throttle is a token bucket per tenant shared across that tenant's
// connections: an over-quota read sleeps the serving goroutine until the
// bucket refills, pushing backpressure onto exactly the tenant that
// overspent while other connections keep being served. Sleeps land in the
// rpc.server.throttle.ns histogram.
func (s *Server) SetTenantQuota(rate, burst float64) {
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	s.quotaRate = rate
	s.quotaBurst = burst
	s.quotas = map[string]*tenantState{}
}

// tenantState is the server-wide accounting for one tenant: read counters
// (minted once, shared by every connection the tenant identifies on) and
// its quota bucket.
type tenantState struct {
	reads  *metrics.Counter
	bytes  *metrics.Counter
	tokens float64
	last   time.Time
}

// tenant returns (creating on first ident) the shared state for name.
func (s *Server) tenant(name string) *tenantState {
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	ts, ok := s.quotas[name]
	if !ok {
		ts = &tenantState{
			reads: s.m.reg.Counter("rpc.tenant." + name + ".reads"),
			bytes: s.m.reg.Counter("rpc.tenant." + name + ".read_bytes"),
		}
		ts.tokens = s.quotaBurst
		s.quotas[name] = ts
	}
	return ts
}

// chargeRead debits n read bytes from ts's bucket and returns how long the
// caller must sleep to respect the tenant's rate. Debt is allowed (the read
// already happened); the sleep amortizes it before the next one.
func (s *Server) chargeRead(ts *tenantState, n int64) time.Duration {
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	ts.reads.Inc()
	ts.bytes.Add(n)
	if s.quotaRate <= 0 {
		return 0
	}
	now := time.Now()
	if !ts.last.IsZero() {
		ts.tokens += now.Sub(ts.last).Seconds() * s.quotaRate
		if ts.tokens > s.quotaBurst {
			ts.tokens = s.quotaBurst
		}
	}
	ts.last = now
	ts.tokens -= float64(n)
	if ts.tokens >= 0 {
		return 0
	}
	return time.Duration(-ts.tokens / s.quotaRate * float64(time.Second))
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Serve accepts connections until the listener fails or the server is
// closed; after Close it returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.listeners, ln)
		s.connMu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing() {
				return ErrServerClosed
			}
			return err
		}
		go s.handleConn(conn)
	}
}

// Close stops every accept loop, wakes idle connections, and blocks until
// all in-flight requests have finished (see the Server doc comment). It is
// idempotent.
func (s *Server) Close() error {
	s.connMu.Lock()
	if !s.closed {
		s.closed = true
		for ln := range s.listeners {
			ln.Close()
		}
		// Kick connections parked in readFrame; handlers mid-dispatch
		// finish and write their response first (writes keep working),
		// then observe the expired read deadline and exit.
		for conn := range s.conns {
			conn.SetReadDeadline(time.Now())
		}
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) closing() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.closed
}

// register tracks a connection for draining; it refuses connections that
// race a Close.
func (s *Server) register(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) unregister(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.wg.Done()
}

func (s *Server) handleConn(conn net.Conn) {
	if !s.register(conn) {
		conn.Close()
		return
	}
	defer s.unregister(conn)
	defer conn.Close()
	s.m.connections.Inc()
	s.logf("rpc: client %s connected", conn.RemoteAddr())
	// cs carries per-connection state across dispatches: the tenant the
	// connection identified as (opIdent), if any.
	cs := &connState{conn: conn}
	// buf is this connection's request buffer, reused from one request to
	// the next: a stream of opWrites lands in the same memory instead of a
	// fresh payload-sized allocation each. dispatch only borrows it — see
	// the ownership rule there.
	var buf []byte
	for {
		payload, err := readFrame(conn, buf)
		if err != nil {
			// EOF is a clean client disconnect; a deadline kick or closed
			// conn during shutdown is the drain path. Neither is news.
			if err != io.EOF && !s.closing() &&
				!errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				s.logf("rpc: client %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.m.bytesIn.Add(int64(len(payload)) + frameHeader)
		s.m.requests.Inc()
		if len(payload) >= 4 {
			if op := binary.BigEndian.Uint32(payload); op <= opWatch {
				s.m.perOp[op].Inc()
			}
		}
		start := time.Now()
		resp := s.dispatch(cs, payload)
		s.m.latency.Observe(time.Since(start).Nanoseconds())
		// One oversized request must not pin its buffer for the life of
		// the connection.
		if buf = payload[:0]; cap(buf) > maxKeptRequestBuf {
			buf = nil
		}
		// Response status word: 0 = OK, anything else = error reply.
		if binary.BigEndian.Uint32(resp[frameHeader:]) != 0 {
			s.m.errors.Inc()
		}
		tail := cs.send
		cs.send = rangeSend{}
		binary.BigEndian.PutUint32(resp, uint32(len(resp)-frameHeader+xdrPadded(tail.n)))
		_, err = conn.Write(resp)
		sent := 0
		if err == nil && tail.f != nil {
			sent, err = sendTail(conn, tail)
		}
		if err != nil {
			if !s.closing() && !errors.Is(err, net.ErrClosed) {
				s.logf("rpc: client %s write: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.m.bytesOut.Add(int64(len(resp) + sent))
		s.m.responses.Inc()
		if s.closing() {
			return
		}
	}
}

// connState is the per-connection dispatch context. A connection starts
// anonymous; an opIdent binds it to a tenant, and every later read on it is
// accounted (and, under SetTenantQuota, throttled) against that tenant.
type connState struct {
	conn   net.Conn // nil when dispatch is called without one (a fuzz target)
	tenant string
	ts     *tenantState
	reply  []byte    // opRead's reply frame, reused from one read to the next
	send   rangeSend // file bytes to send behind the reply head; zero: none
}

// rangeSend is an opRead reply's data, sent from the file straight to the
// connection (vfs.SendRange) behind the head dispatch returned.
type rangeSend struct {
	f   vfs.File
	off int64
	n   int
}

// sendRead answers an opRead of n > 0 bytes at off >= 0 from a file that
// sends its own bytes to the connection. n comes from the file's size, as the
// oversized-read path has it, so the head [len|status|eof|n] can go first;
// the connection loop then sends the range and the XDR pad: the bytes the
// copy path would produce. The tenant is charged before anything is sent.
func (s *Server) sendRead(cs *connState, f vfs.File, off int64, n uint32) []byte {
	eof := false
	if rest := max(f.Size()-off, 0); int64(n) > rest {
		n, eof = uint32(rest), true
	}
	if cs.ts != nil {
		if d := s.chargeRead(cs.ts, int64(n)); d > 0 {
			s.m.throttleNS.Observe(int64(d))
			time.Sleep(d)
		}
	}
	resp := cs.readReply(readReplyHead)
	binary.BigEndian.PutUint32(resp[frameHeader:], 0)
	binary.BigEndian.PutUint32(resp[frameHeader+4:], boolWord(eof))
	binary.BigEndian.PutUint32(resp[frameHeader+8:], n)
	if n > 0 {
		cs.send = rangeSend{f: f, off: off, n: int(n)}
	}
	return resp
}

// sendTail sends the range an opRead reply's head announced, then its pad.
// Fewer bytes than announced — the file shrank after its size was taken —
// cannot be patched into a head already sent, so that is an error, and the
// caller ends the connection: the client sees a broken reply and retries,
// never a frame of the wrong bytes.
func sendTail(conn net.Conn, rs rangeSend) (int, error) {
	sent, err := vfs.SendRange(rs.f, conn, rs.off, int64(rs.n))
	if err == nil && sent < int64(rs.n) {
		err = fmt.Errorf("rpc: read of %d bytes sent %d: the file shrank", rs.n, sent)
	}
	if err != nil {
		return int(sent), err
	}
	pad := xdrPadded(rs.n) - rs.n
	if pad > 0 {
		_, err = conn.Write(zeroPad[:pad])
	}
	return rs.n + pad, err
}

// maxKeptRequestBuf is the largest request buffer, and the largest read-reply
// buffer, a connection keeps between requests; ingest's per-frame subset
// writes and playback's per-frame reads (a few hundred kB) fit.
const maxKeptRequestBuf = 1 << 20

// readReply returns size bytes to build one opRead reply in: the connection's
// kept buffer, grown when too small — but one oversized read must not pin its
// buffer for the life of the connection, and gets a buffer of its own.
func (cs *connState) readReply(size int) []byte {
	if size > maxKeptRequestBuf {
		return make([]byte, size)
	}
	if cap(cs.reply) < size {
		cs.reply = make([]byte, size)
	}
	return cs.reply[:size]
}

// dispatch executes one request and returns the response frame, length
// prefix reserved but not yet filled in. payload is the connection's reused
// request buffer: a handler must not retain it, or any slice decoded from
// it, past its return — copy what has to outlive the call (SetClusterTable
// does; strings copy on conversion; vfs.File.Write, like any io.Writer, may
// not keep its argument). The converse holds for what comes back: an opRead
// reply is the connection's reused reply buffer, valid until cs's next
// dispatch.
func (s *Server) dispatch(cs *connState, payload []byte) []byte {
	r := xdr.NewReader(payload)
	op := r.Uint32()
	if err := r.Err(); err != nil {
		return respondErr(err)
	}
	switch op {
	case opCreate, opOpen:
		name := r.String()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		var f vfs.File
		var err error
		if op == opCreate {
			f, err = s.fsys.Create(name)
		} else {
			f, err = s.fsys.Open(name)
		}
		if err != nil {
			return respondErr(err)
		}
		s.mu.Lock()
		s.nextFD++
		fd := s.nextFD
		s.handles[fd] = f
		s.mu.Unlock()
		w := respondOK()
		w.Uint32(fd)
		w.Int64(f.Size())
		return w.Bytes()

	case opRead:
		fd := r.Uint32()
		off := r.Int64()
		n := r.Uint32()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		if n > MaxPayload/2 {
			return respondErr(fmt.Errorf("rpc: read of %d bytes too large", n))
		}
		f, err := s.handle(fd)
		if err != nil {
			return respondErr(err)
		}
		if off >= 0 && n > 0 && cs.conn != nil && vfs.CanSendRange(f, cs.conn) {
			return s.sendRead(cs, f, off, n)
		}
		// A read too large for the kept reply buffer gets a buffer of its
		// own, sized by what the file can return rather than by what was
		// asked: a 20-byte request must not make the node allocate
		// MaxPayload/2. The reads playback and ingest make fit the kept
		// buffer and pay for no Size.
		short := false
		if readReplyHead+xdrPadded(int(n)) > maxKeptRequestBuf {
			if off < 0 {
				return respondErr(fmt.Errorf("rpc: read at negative offset %d", off))
			}
			if rest := max(f.Size()-off, 0); int64(n) > rest {
				n, short = uint32(rest), true
			}
		}
		// The file is read straight into the reply, behind the head its
		// outcome is then patched into: [len|status|eof|n|data|pad], the bytes
		// respondOK + VarOpaque would produce with the data copied only once.
		resp := cs.readReply(readReplyHead + xdrPadded(int(n)))
		got, err := f.ReadAt(resp[readReplyHead:readReplyHead+int(n)], off)
		if err != nil && err != io.EOF {
			return respondErr(err)
		}
		if short {
			err = io.EOF // the file ended before the read: what ReadAt past it says
		}
		if cs.ts != nil {
			if d := s.chargeRead(cs.ts, int64(got)); d > 0 {
				s.m.throttleNS.Observe(int64(d))
				time.Sleep(d)
			}
		}
		resp = resp[:readReplyHead+xdrPadded(got)]
		binary.BigEndian.PutUint32(resp[frameHeader:], 0)
		binary.BigEndian.PutUint32(resp[frameHeader+4:], boolWord(err == io.EOF))
		binary.BigEndian.PutUint32(resp[frameHeader+8:], uint32(got))
		clear(resp[readReplyHead+got:])
		return resp

	case opWrite:
		fd := r.Uint32()
		data := r.VarOpaque()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		f, err := s.handle(fd)
		if err != nil {
			return respondErr(err)
		}
		n, err := f.Write(data)
		if err != nil {
			return respondErr(err)
		}
		w := respondOK()
		w.Uint32(uint32(n))
		return w.Bytes()

	case opClose:
		fd := r.Uint32()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		s.mu.Lock()
		f, ok := s.handles[fd]
		delete(s.handles, fd)
		s.mu.Unlock()
		if !ok {
			return respondErr(fmt.Errorf("rpc: unknown handle %d", fd))
		}
		if err := f.Close(); err != nil {
			return respondErr(err)
		}
		return respondOK().Bytes()

	case opSize:
		fd := r.Uint32()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		f, err := s.handle(fd)
		if err != nil {
			return respondErr(err)
		}
		w := respondOK()
		w.Int64(f.Size())
		return w.Bytes()

	case opStat:
		name := r.String()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		info, err := s.fsys.Stat(name)
		if err != nil {
			return respondErr(err)
		}
		w := respondOK()
		appendInfo(w, info)
		return w.Bytes()

	case opReadDir:
		name := r.String()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		entries, err := s.fsys.ReadDir(name)
		if err != nil {
			return respondErr(err)
		}
		w := respondOK()
		w.Uint32(uint32(len(entries)))
		for _, e := range entries {
			appendInfo(w, e)
		}
		return w.Bytes()

	case opMkdirAll:
		name := r.String()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		if err := s.fsys.MkdirAll(name); err != nil {
			return respondErr(err)
		}
		return respondOK().Bytes()

	case opRemove:
		name := r.String()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		if err := s.fsys.Remove(name); err != nil {
			return respondErr(err)
		}
		return respondOK().Bytes()

	case opIdent:
		tenant := r.String()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		if tenant == "" {
			return respondErr(fmt.Errorf("%w: empty tenant name", ErrProtocol))
		}
		cs.tenant = tenant
		cs.ts = s.tenant(tenant)
		return respondOK().Bytes()

	case opTableGet:
		data, version := s.ClusterTable()
		w := respondOK()
		w.Uint64(version)
		w.VarOpaque(data)
		return w.Bytes()

	case opTablePut:
		version := r.Uint64()
		data := r.VarOpaque()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		if err := s.SetClusterTable(data, version); err != nil {
			return respondErr(err)
		}
		return respondOK().Bytes()

	case opRename:
		oldname := r.String()
		newname := r.String()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		if err := s.fsys.Rename(oldname, newname); err != nil {
			return respondErr(err)
		}
		return respondOK().Bytes()

	case opWatch:
		name := r.String()
		lastCRC := r.Uint32()
		timeoutMs := r.Uint32()
		if err := r.Err(); err != nil {
			return respondErr(err)
		}
		data, crc, changed, err := s.watch(name, lastCRC, time.Duration(timeoutMs)*time.Millisecond)
		if err != nil {
			return respondErr(err)
		}
		w := respondOK()
		w.Uint32(boolWord(changed))
		w.Uint32(crc)
		w.VarOpaque(data)
		return w.Bytes()

	default:
		return respondErr(fmt.Errorf("%w: unknown opcode %d", ErrProtocol, op))
	}
}

// SetClusterTable installs a cluster placement table on the node's
// metadata endpoint (opTableGet/opTablePut). The bytes are opaque to the
// server — validation belongs to internal/placement — but versions are
// not: a put older than the installed table is rejected so a lagging
// controller cannot roll the cluster's layout back, while re-putting the
// current version is an idempotent no-op (safe under client retry).
func (s *Server) SetClusterTable(data []byte, version uint64) error {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if version < s.tableVersion {
		return fmt.Errorf("rpc: stale cluster table version %d (node has %d)", version, s.tableVersion)
	}
	s.tableData = append([]byte(nil), data...)
	s.tableVersion = version
	return nil
}

// ClusterTable returns the installed placement table and its version
// (nil, 0 when the node has none).
func (s *Server) ClusterTable() ([]byte, uint64) {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if s.tableData == nil {
		return nil, s.tableVersion
	}
	return append([]byte(nil), s.tableData...), s.tableVersion
}

// watch is the wire half of vfs.WatchFile: clients forward the whole
// long-poll in one opWatch call instead of re-reading the file over the
// network every few milliseconds. Each look at the file is vfs.WatchFile's
// single check; what the node adds is its own cadence (watchPoll), the
// maxWatchTimeout cap, and giving up as soon as it starts closing, so a parked
// watch never holds up a drain.
func (s *Server) watch(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	poll := s.watchPoll
	if poll <= 0 {
		poll = defaultWatchPoll
	}
	deadline := time.Now().Add(min(timeout, maxWatchTimeout))
	for {
		data, crc, changed, err := vfs.WatchFile(s.fsys, name, lastCRC, 0)
		remaining := time.Until(deadline)
		if err != nil || changed || remaining <= 0 || s.closing() {
			return data, crc, changed, err
		}
		time.Sleep(min(remaining, poll))
	}
}

func (s *Server) handle(fd uint32) (vfs.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.handles[fd]
	if !ok {
		return nil, fmt.Errorf("rpc: unknown handle %d", fd)
	}
	return f, nil
}

func appendInfo(w *xdr.Writer, info vfs.FileInfo) {
	w.String(info.Name)
	w.Int64(info.Size)
	w.Uint32(boolWord(info.IsDir))
}

func decodeInfo(r *xdr.Reader) vfs.FileInfo {
	return vfs.FileInfo{
		Name:  r.String(),
		Size:  r.Int64(),
		IsDir: r.Uint32() != 0,
	}
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

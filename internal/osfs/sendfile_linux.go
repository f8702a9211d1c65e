package osfs

import (
	"io"
	"net"
	"sync"
	"syscall"
)

// CanSendRange reports whether SendRange sends to w with sendfile(2): w is a
// TCP connection and the file has a descriptor to send from.
func (f *file) CanSendRange(w io.Writer) bool {
	_, ok := w.(*net.TCPConn)
	return ok && f.raw != nil
}

// SendRange writes n bytes of the file, from offset off, to w: for a TCP
// connection with sendfile(2), so the bytes go from the page cache to the
// socket without a copy in user space, and for any other writer read and
// written. sendfile is given the offset explicitly and never uses or moves
// the descriptor's own, which every connection reading this handle shares.
// Fewer than n bytes, with a nil error, means the file ended first. A send
// allocates only the connection's raw handle: the file's is taken at open,
// and the send's own state and callbacks come from a pool.
func (f *file) SendRange(w io.Writer, off, n int64) (int64, error) {
	tc, ok := w.(*net.TCPConn)
	if !ok || f.raw == nil {
		return io.Copy(w, io.NewSectionReader(f.f, off, n))
	}
	dst, err := tc.SyscallConn()
	if err != nil {
		return 0, err
	}
	s := senders.Get().(*sender)
	s.dst, s.off, s.n, s.sent, s.err = dst, off, n, 0, nil
	cerr := f.raw.Control(s.control)
	sent, serr := s.sent, s.err
	s.dst = nil
	senders.Put(s)
	if serr == nil {
		serr = cerr
	}
	return sent, serr
}

// sender is one send's arguments and results, with the two callbacks the
// raw handles run bound to it once, when the pool makes it.
type sender struct {
	dst          syscall.RawConn
	in           int
	off, n, sent int64
	err          error
	control      func(fd uintptr)
	write        func(fd uintptr) bool
}

var senders = sync.Pool{New: func() any {
	s := new(sender)
	s.control, s.write = s.onFile, s.onConn
	return s
}}

// onFile runs with the file's descriptor held open: it sends from it once
// the connection is writable.
func (s *sender) onFile(in uintptr) {
	s.in = int(in)
	if err := s.dst.Write(s.write); s.err == nil {
		s.err = err
	}
}

// onConn sends until the range is out, the file ends, or the socket is
// full (false: wait until it takes more, then run again).
func (s *sender) onConn(out uintptr) bool {
	for s.sent < s.n {
		m, err := syscall.Sendfile(int(out), s.in, &s.off, int(s.n-s.sent))
		if m > 0 {
			s.sent += int64(m)
		}
		switch {
		case err == syscall.EAGAIN:
			return false // wait until the socket takes more
		case err == syscall.EINTR:
		case err != nil:
			s.err = err
			return true
		case m == 0:
			return true // the file ended
		}
	}
	return true
}

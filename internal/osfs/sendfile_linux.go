package osfs

import (
	"io"
	"net"
	"syscall"
)

// CanSendRange reports whether SendRange sends to w with sendfile(2): w is a
// TCP connection.
func (f *file) CanSendRange(w io.Writer) bool {
	_, ok := w.(*net.TCPConn)
	return ok
}

// SendRange writes n bytes of the file, from offset off, to w: for a TCP
// connection with sendfile(2), so the bytes go from the page cache to the
// socket without a copy in user space, and for any other writer read and
// written. sendfile is given the offset explicitly and never uses or moves
// the descriptor's own, which every connection reading this handle shares.
// Fewer than n bytes, with a nil error, means the file ended first.
func (f *file) SendRange(w io.Writer, off, n int64) (int64, error) {
	tc, ok := w.(*net.TCPConn)
	if !ok {
		return io.Copy(w, io.NewSectionReader(f.f, off, n))
	}
	dst, err := tc.SyscallConn()
	if err != nil {
		return 0, err
	}
	src, err := f.f.SyscallConn()
	if err != nil {
		return 0, err
	}
	var sent int64
	var serr error
	cerr := src.Control(func(in uintptr) {
		werr := dst.Write(func(out uintptr) bool {
			for sent < n {
				m, err := syscall.Sendfile(int(out), int(in), &off, int(n-sent))
				if m > 0 {
					sent += int64(m)
				}
				switch {
				case err == syscall.EAGAIN:
					return false // wait until the socket takes more
				case err == syscall.EINTR:
				case err != nil:
					serr = err
					return true
				case m == 0:
					return true // the file ended
				}
			}
			return true
		})
		if serr == nil {
			serr = werr
		}
	})
	if serr == nil {
		serr = cerr
	}
	return sent, serr
}

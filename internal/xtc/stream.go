package xtc

import (
	"io"
	"math"

	"repro/internal/xdr"
)

// Writer appends frames to an underlying io.Writer as a concatenation of
// self-describing XDR frame blocks, like an .xtc file.
type Writer struct {
	w          io.Writer
	scratch    *xdr.Writer
	compressed bool
	frames     int
	bytes      int64
}

// NewWriter returns a Writer emitting compressed frames.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, scratch: xdr.NewWriter(4096), compressed: true}
}

// NewRawWriter returns a Writer emitting uncompressed (raw) frames.
func NewRawWriter(w io.Writer) *Writer {
	return &Writer{w: w, scratch: xdr.NewWriter(4096)}
}

// WriteFrame appends one frame.
func (w *Writer) WriteFrame(f *Frame) error {
	w.scratch.Reset()
	if w.compressed {
		if err := f.AppendEncoded(w.scratch); err != nil {
			return err
		}
	} else {
		f.AppendRaw(w.scratch)
	}
	n, err := w.w.Write(w.scratch.Bytes())
	w.bytes += int64(n)
	if err != nil {
		return err
	}
	w.frames++
	return nil
}

// Frames returns the number of frames written.
func (w *Writer) Frames() int { return w.frames }

// BytesWritten returns the total encoded bytes emitted.
func (w *Writer) BytesWritten() int64 { return w.bytes }

// Reader decodes frames sequentially from an io.Reader. It is a Scanner
// (cheap framing) followed by an in-place decode of each scanned blob.
type Reader struct {
	s *Scanner
}

// NewReader returns a streaming frame reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{s: NewScanner(r)}
}

// headerLen is magic+natoms+step+time+box = 4*(4+9) bytes.
const headerLen = 4 * (4 + 9)

// ReadFrame decodes the next frame. It returns io.EOF cleanly at the end of
// the stream and io.ErrUnexpectedEOF for a truncated frame.
func (r *Reader) ReadFrame() (*Frame, error) {
	f, _, err := r.ReadFrameSize()
	return f, err
}

// ReadFrameSize is ReadFrame that also reports the frame's exact encoded
// byte length (the scanner's read-ahead is not counted).
func (r *Reader) ReadFrameSize() (*Frame, int64, error) {
	blob, err := r.s.Next()
	if err != nil {
		return nil, 0, err
	}
	f, err := decodeBytes(blob)
	return f, int64(len(blob)), err
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadAll decodes every frame in the stream.
func (r *Reader) ReadAll() ([]*Frame, error) {
	var frames []*Frame
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// MaxError returns the worst-case absolute coordinate error introduced by
// quantizing at the given precision (half a quantum).
func MaxError(precision float32) float64 {
	if precision <= 0 {
		precision = DefaultPrecision
	}
	return 0.5 / float64(precision)
}

// CompressionRatio reports raw/compressed given the two byte sizes,
// guarding against division by zero.
func CompressionRatio(rawBytes, compressedBytes int64) float64 {
	if compressedBytes == 0 {
		return math.Inf(1)
	}
	return float64(rawBytes) / float64(compressedBytes)
}

// RawFrameSize returns the encoded byte size of an uncompressed frame with
// the given atom count.
func RawFrameSize(natoms int) int64 {
	return int64(headerLen + natoms*12)
}

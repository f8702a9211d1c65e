package xtc

import (
	"sync"

	"repro/internal/xdr"
)

// Scratch pools for the codec hot path. Encoding and decoding a compressed
// frame both need an O(natoms) []int32 workspace, and a trajectory touches
// it once per frame — pooling it removes the dominant per-frame allocations
// without changing the public API. A decode's xdr.Reader is not pooled: it
// lives on decodeBytesInto's stack. Decoded Frames are freshly allocated,
// since callers retain them, unless a caller hands them back
// (AheadReader.Recycle).

// intsPool recycles quantization workspaces. Entries are stored as
// *[]int32 so Put does not allocate an interface box per cycle.
var intsPool sync.Pool

// getInts returns an []int32 of length n, reusing pooled capacity.
func getInts(n int) []int32 {
	if v, _ := intsPool.Get().(*[]int32); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]int32, n)
}

func putInts(s []int32) {
	s = s[:0]
	intsPool.Put(&s)
}

// bytesPool recycles frame-sized byte buffers (random-access reads).
var bytesPool sync.Pool

// getBytes returns a []byte of length n, reusing pooled capacity.
func getBytes(n int) []byte {
	if v, _ := bytesPool.Get().(*[]byte); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]byte, n)
}

func putBytes(s []byte) {
	s = s[:0]
	bytesPool.Put(&s)
}

// bitWriterPool recycles the encode-side bit writers: without it every
// compressed frame allocates a natoms*3-byte buffer — once per frame per
// tagged subset on the ingest write path.
var bitWriterPool = sync.Pool{New: func() any { return xdr.NewBitWriter(1 << 16) }}

// getBitWriter returns an empty BitWriter, reusing pooled capacity.
func getBitWriter() *xdr.BitWriter {
	w := bitWriterPool.Get().(*xdr.BitWriter)
	w.Reset()
	return w
}

func putBitWriter(w *xdr.BitWriter) { bitWriterPool.Put(w) }

// decodeBytes decodes one encoded frame from p.
func decodeBytes(p []byte) (*Frame, error) { return decodeBytesInto(p, &Frame{}) }

// decodeBytesInto is decodeBytes into f (see decodeFrameInto). Its
// xdr.Reader lives on the stack: decodeFrameInto keeps no pointer to it, so a
// frame decodes without allocating one, and no pool a collection can empty
// stands between a reused frame and zero allocations.
func decodeBytesInto(p []byte, f *Frame) (*Frame, error) {
	var rd xdr.Reader
	rd.Reset(p)
	return decodeFrameInto(&rd, f)
}

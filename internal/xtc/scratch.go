package xtc

import (
	"sync"

	"repro/internal/xdr"
)

// Scratch pools for the codec hot path. Encoding and decoding a frame both
// need an O(natoms) []int32 workspace plus an xdr.Reader, and a trajectory
// touches those once per frame — pooling them removes the dominant per-frame
// allocations without changing the public API. Decoded Frames are freshly
// allocated, since callers retain them, unless a caller hands them back
// (ParallelReader.Recycle).

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

// bytesPool recycles frame-sized byte buffers (scanner blobs, random-access
// reads).
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

// xdrReaderPool recycles xdr.Readers so each decoded frame does not allocate
// one.
var xdrReaderPool = sync.Pool{New: func() any { return xdr.NewReader(nil) }}

// decodeBytes decodes one encoded frame from p using a pooled xdr.Reader.
func decodeBytes(p []byte) (*Frame, error) { return decodeBytesInto(p, &Frame{}) }

// decodeBytesInto is decodeBytes into f (see decodeFrameInto).
func decodeBytesInto(p []byte, f *Frame) (*Frame, error) {
	rd := xdrReaderPool.Get().(*xdr.Reader)
	rd.Reset(p)
	f, err := decodeFrameInto(rd, f)
	rd.Reset(nil)
	xdrReaderPool.Put(rd)
	return f, err
}

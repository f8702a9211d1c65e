package xtc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Index maps frame numbers to byte offsets in a trajectory stream, enabling
// the random frame access that interactive playback needs ("replaying the
// frames back and forth", Section 2.1 of the paper).
type Index struct {
	offsets []int64 // offsets[i] = start of frame i
	sizes   []int64 // encoded byte length of frame i
	natoms  []int32
	crcs    []uint32 // optional per-frame CRC32C (empty on legacy indices)
}

// BuildIndex scans a trajectory stream once and records every frame's
// offset without decompressing coordinate payloads.
func BuildIndex(r io.ReaderAt, size int64) (*Index, error) {
	idx := &Index{}
	var off int64
	var head [headerLen + 4*10]byte
	for off < size {
		n, err := r.ReadAt(head[:headerLen], off)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("xtc: index at offset %d: %w", off, err)
		}
		if n < headerLen {
			return nil, fmt.Errorf("xtc: truncated frame header at offset %d", off)
		}
		magic := int32(binary.BigEndian.Uint32(head[0:]))
		natoms := int32(binary.BigEndian.Uint32(head[4:]))
		if natoms < 0 {
			return nil, fmt.Errorf("xtc: negative atom count at offset %d", off)
		}
		var frameLen int64
		switch magic {
		case MagicRaw:
			frameLen = headerLen + int64(natoms)*12
		case MagicCompressed:
			if natoms <= smallAtomThreshold {
				frameLen = headerLen + int64(natoms)*12
				break
			}
			// Read the coord metadata to find the blob length.
			if _, err := r.ReadAt(head[headerLen:headerLen+36], off+headerLen); err != nil {
				return nil, fmt.Errorf("xtc: index metadata at offset %d: %w", off, err)
			}
			blobLen := int64(binary.BigEndian.Uint32(head[headerLen+32:]))
			padded := blobLen + (4-blobLen%4)%4
			frameLen = headerLen + 36 + padded
		default:
			return nil, fmt.Errorf("%w: %d at offset %d", ErrBadMagic, magic, off)
		}
		if off+frameLen > size {
			return nil, fmt.Errorf("xtc: frame %d overruns stream (%d+%d > %d)",
				len(idx.offsets), off, frameLen, size)
		}
		idx.offsets = append(idx.offsets, off)
		idx.sizes = append(idx.sizes, frameLen)
		idx.natoms = append(idx.natoms, natoms)
		off += frameLen
	}
	return idx, nil
}

// BuildIndexChecksummed is BuildIndex plus a second pass that reads every
// frame's bytes and records its CRC32C, producing a v2 (checksummed) index
// from an existing stream — the recovery path uses it to rebuild the index
// a crash destroyed.
func BuildIndexChecksummed(r io.ReaderAt, size int64) (*Index, error) {
	idx, err := BuildIndex(r, size)
	if err != nil {
		return nil, err
	}
	idx.crcs = make([]uint32, idx.Frames())
	for i := range idx.crcs {
		buf := getBytes(int(idx.sizes[i]))
		if _, err := r.ReadAt(buf, idx.offsets[i]); err != nil && err != io.EOF {
			putBytes(buf)
			return nil, fmt.Errorf("xtc: checksum frame %d: %w", i, err)
		}
		idx.crcs[i] = CRC32C(buf)
		putBytes(buf)
	}
	return idx, nil
}

// IndexBuilder accumulates an Index while frames are being written, so the
// writer side can persist it without re-scanning.
type IndexBuilder struct {
	idx Index
	off int64
}

// Add records the next frame's encoded length and atom count.
func (b *IndexBuilder) Add(frameLen int64, natoms int) {
	b.idx.offsets = append(b.idx.offsets, b.off)
	b.idx.sizes = append(b.idx.sizes, frameLen)
	b.idx.natoms = append(b.idx.natoms, int32(natoms))
	b.off += frameLen
}

// AddWithCRC is Add plus the frame's CRC32C; mixing Add and AddWithCRC in
// one builder leaves the index without checksums (they must cover every
// frame to be trustworthy, so a partial set is dropped at Marshal time).
func (b *IndexBuilder) AddWithCRC(frameLen int64, natoms int, crc uint32) {
	b.Add(frameLen, natoms)
	b.idx.crcs = append(b.idx.crcs, crc)
}

// Index returns the built index.
func (b *IndexBuilder) Index() *Index { return &b.idx }

// Frames returns the number of indexed frames.
func (x *Index) Frames() int { return len(x.offsets) }

// Offset returns frame i's byte offset.
func (x *Index) Offset(i int) int64 { return x.offsets[i] }

// Size returns frame i's encoded byte length.
func (x *Index) Size(i int) int64 { return x.sizes[i] }

// NAtoms returns frame i's atom count.
func (x *Index) NAtoms(i int) int { return int(x.natoms[i]) }

// HasChecksums reports whether the index carries a CRC32C for every frame.
func (x *Index) HasChecksums() bool {
	return len(x.crcs) == len(x.offsets) && len(x.offsets) > 0
}

// CRC returns frame i's CRC32C. Only valid when HasChecksums is true.
func (x *Index) CRC(i int) uint32 { return x.crcs[i] }

// FrameOK reports whether p is frame i as the index records it: the stored
// length and, when the index carries checksums, the CRC32C. It is the one
// place stored bytes are compared with their index entry — every reader,
// fsck and both scrubbers decide "is this copy good" by calling it.
func (x *Index) FrameOK(i int, p []byte) bool {
	return int64(len(p)) == x.sizes[i] && (!x.HasChecksums() || CRC32C(p) == x.CRC(i))
}

// ReadFrame decodes frame i into dst — a new Frame for one the caller keeps,
// or one whose Coords it may overwrite — from its stored bytes, which fill
// must put into p — pooled scratch of the frame's indexed size — from the
// frame's indexed offset. The decoded frame keeps no reference to the scratch.
func (x *Index) ReadFrame(i int, dst *Frame, fill func(p []byte, off int64) error) (*Frame, error) {
	if i < 0 || i >= x.Frames() {
		return nil, fmt.Errorf("xtc: frame %d out of range [0,%d)", i, x.Frames())
	}
	buf := getBytes(int(x.sizes[i]))
	defer putBytes(buf)
	if err := fill(buf, x.offsets[i]); err != nil {
		return nil, err
	}
	return decodeBytesInto(buf, dst)
}

// TotalBytes returns the stream length covered by the index.
func (x *Index) TotalBytes() int64 {
	if len(x.offsets) == 0 {
		return 0
	}
	last := len(x.offsets) - 1
	return x.offsets[last] + x.sizes[last]
}

// RandomAccessReader reads individual frames by number. ReadFrameAt is safe
// for concurrent use (io.ReaderAt is concurrency-safe by contract and the
// scratch buffers are pooled), which lets the serve fabric's workers decode
// several frames of one source at once.
type RandomAccessReader struct {
	r   io.ReaderAt
	idx *Index
}

// NewRandomAccessReader returns a reader over an indexed stream.
func NewRandomAccessReader(r io.ReaderAt, idx *Index) *RandomAccessReader {
	return &RandomAccessReader{r: r, idx: idx}
}

// Frames returns the frame count.
func (ra *RandomAccessReader) Frames() int { return ra.idx.Frames() }

// ConcurrentFrameReads reports that ReadFrameAt may be called from multiple
// goroutines at once.
func (ra *RandomAccessReader) ConcurrentFrameReads() bool { return true }

// ReadFrameAt decodes frame i.
func (ra *RandomAccessReader) ReadFrameAt(i int) (*Frame, error) {
	return ra.idx.ReadFrame(i, &Frame{}, func(p []byte, off int64) error {
		if _, err := ra.r.ReadAt(p, off); err != nil && err != io.EOF {
			return fmt.Errorf("xtc: read frame %d: %w", i, err)
		}
		return nil
	})
}

package xtc

import "hash/crc32"

// castagnoli is the CRC32C polynomial table — the same checksum iSCSI,
// ext4 metadata, and Btrfs use, chosen for its hardware support (SSE4.2
// CRC32 instruction) and good error-detection properties on storage-sized
// payloads.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the CRC32C checksum of p.
func CRC32C(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// CRC32CUpdate continues a running CRC32C over p, so a writer can maintain
// a whole-stream checksum incrementally while also recording per-frame
// checksums.
func CRC32CUpdate(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// DecodeFrameBytes decodes one encoded frame blob (as produced by
// Writer.WriteFrame, or sliced out of a stream at an Index offset).
func DecodeFrameBytes(p []byte) (*Frame, error) { return decodeBytes(p) }

// DecodeFrameBytesInto is DecodeFrameBytes into dst, whose Coords are
// overwritten and reused; the decoded frame keeps no reference to p.
func DecodeFrameBytesInto(p []byte, dst *Frame) (*Frame, error) { return decodeBytesInto(p, dst) }

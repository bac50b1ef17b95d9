// Package wire defines the binary frame format used to push becasts over a
// real network (the netcast package). One frame carries one full becast:
// control segment (invalidation report + serialization-graph delta) and
// data/overflow segments, in broadcast order, integrity-protected by a
// CRC32 trailer.
//
// Layout (all integers big-endian):
//
//	magic        uint32  "BPSH"
//	version      uint8
//	cycle        uint64
//	numCommitted uint32
//	totalItems   uint32
//	reportLen    uint32, then reportLen * { item u32, writer TxID }
//	deltaNodes   uint32, then nodes * TxID
//	deltaEdges   uint32, then edges * { from TxID, to TxID }
//	entries      uint32, then entries * { item u32, value i64, verCycle u64, writer TxID, overflow i32 }
//	overflowLen  uint32, then overflowLen * { item u32, value i64, verCycle u64, writer TxID }
//	crc32        uint32 (IEEE, over everything after the magic)
//
// TxID is { cycle u64, seq u32 }.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/sg"
)

const (
	// Magic identifies a frame.
	Magic = uint32(0x42505348) // "BPSH"
	// Version is the current frame version.
	Version = uint8(1)
	// MaxFrameSize bounds a frame (64 MiB), protecting decoders from
	// corrupt length fields.
	MaxFrameSize = 64 << 20
)

// ErrBadFrame is returned for malformed or corrupt frames.
var ErrBadFrame = errors.New("wire: bad frame")

// maxSegment bounds any single length field; derived from MaxFrameSize
// and the smallest element size so corrupt lengths fail fast.
const maxSegment = MaxFrameSize / 12

// Encoded sizes of the frame's fixed parts and segment elements.
const (
	headerSize     = 4 + 1 + 8 + 4 + 4 // magic, version, cycle, numCommitted, totalItems
	txSize         = 8 + 4
	reportSize     = 4 + txSize
	edgeSize       = 2 * txSize
	oldVersionSize = 4 + 8 + 8 + txSize
	entrySize      = oldVersionSize + 4
)

// readChunk caps how many elements Decode reads, and allocates room
// for, before the next bytes have actually arrived. A corrupt length
// field can claim up to maxSegment elements; reading in chunks keeps a
// damaged frame from forcing a huge allocation before the decode fails.
const readChunk = 4096

var be = binary.BigEndian

// Encode serializes a becast into a frame.
func Encode(b *broadcast.Bcast) ([]byte, error) {
	if b == nil || len(b.Entries) == 0 {
		return nil, fmt.Errorf("%w: nil or empty becast", ErrBadFrame)
	}
	size := headerSize + 5*4 + 4 + // header, five segment lengths, checksum
		len(b.Report)*reportSize +
		len(b.Delta.Nodes)*txSize +
		len(b.Delta.Edges)*edgeSize +
		len(b.Entries)*entrySize +
		len(b.Overflow)*oldVersionSize
	if size > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, size)
	}
	//lint:allow hotalloc one exact-size buffer per frame encode: once per cycle on air, and it becomes the sealed netcast.Frame
	buf := make([]byte, 0, size)
	buf = be.AppendUint32(buf, Magic)
	buf = append(buf, Version)
	buf = be.AppendUint64(buf, uint64(b.Cycle))
	buf = be.AppendUint32(buf, uint32(b.NumCommitted))
	buf = be.AppendUint32(buf, uint32(b.TotalItems))

	buf = be.AppendUint32(buf, uint32(len(b.Report)))
	for _, e := range b.Report {
		buf = be.AppendUint32(buf, uint32(e.Item))
		buf = appendTx(buf, e.FirstWriter)
	}
	buf = be.AppendUint32(buf, uint32(len(b.Delta.Nodes)))
	for _, n := range b.Delta.Nodes {
		buf = appendTx(buf, n)
	}
	buf = be.AppendUint32(buf, uint32(len(b.Delta.Edges)))
	for _, e := range b.Delta.Edges {
		buf = appendTx(buf, e.From)
		buf = appendTx(buf, e.To)
	}
	buf = be.AppendUint32(buf, uint32(len(b.Entries)))
	for _, e := range b.Entries {
		buf = appendVersion(buf, e.Item, e.Version)
		buf = be.AppendUint32(buf, uint32(int32(e.Overflow)))
	}
	buf = be.AppendUint32(buf, uint32(len(b.Overflow)))
	for _, ov := range b.Overflow {
		buf = appendVersion(buf, ov.Item, ov.Version)
	}
	return be.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:])), nil
}

func appendTx(buf []byte, t model.TxID) []byte {
	return be.AppendUint32(be.AppendUint64(buf, uint64(t.Cycle)), t.Seq)
}

// appendVersion writes { item u32, value i64, verCycle u64, writer TxID }.
func appendVersion(buf []byte, item model.ItemID, v model.Version) []byte {
	buf = be.AppendUint32(buf, uint32(item))
	buf = be.AppendUint64(buf, uint64(v.Value))
	buf = be.AppendUint64(buf, uint64(v.Cycle))
	return appendTx(buf, v.Writer)
}

func parseTx(p []byte) model.TxID {
	return model.TxID{Cycle: model.Cycle(be.Uint64(p)), Seq: be.Uint32(p[8:])}
}

// parseVersion is the inverse of appendVersion.
func parseVersion(p []byte) (model.ItemID, model.Version) {
	return model.ItemID(be.Uint32(p)), model.Version{
		Value:  model.Value(int64(be.Uint64(p[4:]))),
		Cycle:  model.Cycle(be.Uint64(p[12:])),
		Writer: parseTx(p[20:]),
	}
}

func parseReport(p []byte) broadcast.InvalidationEntry {
	return broadcast.InvalidationEntry{Item: model.ItemID(be.Uint32(p)), FirstWriter: parseTx(p[4:])}
}

func parseEdge(p []byte) sg.Edge {
	return sg.Edge{From: parseTx(p), To: parseTx(p[txSize:])}
}

func parseEntry(p []byte) broadcast.Entry {
	item, v := parseVersion(p)
	return broadcast.Entry{Item: item, Version: v, Overflow: int(int32(be.Uint32(p[oldVersionSize:])))}
}

func parseOldVersion(p []byte) broadcast.OldVersion {
	item, v := parseVersion(p)
	return broadcast.OldVersion{Item: item, Version: v}
}

// decoder reads a frame's checksummed body through one reused scratch
// buffer, folding every byte it reads into the running CRC.
type decoder struct {
	r   io.Reader
	buf []byte
	crc uint32
}

// read returns the next n bytes; the slice is valid until the next read.
func (d *decoder) read(n int) ([]byte, error) {
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	p := d.buf[:n]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return nil, frameErr(err)
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	return p, nil
}

// readLen reads a u32 length field and bounds it by maxSegment.
func (d *decoder) readLen() (int, error) {
	p, err := d.read(4)
	if err != nil {
		return 0, err
	}
	n := be.Uint32(p)
	if n > maxSegment {
		return 0, fmt.Errorf("%w: segment length %d", ErrBadFrame, n)
	}
	return int(n), nil
}

// readSegment reads a length-prefixed segment of size-byte elements,
// at most readChunk elements at a time, so the result grows only as its
// bytes arrive.
func readSegment[T any](d *decoder, size int, parse func([]byte) T) ([]T, error) {
	n, err := d.readLen()
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, min(n, readChunk))
	for n > 0 {
		k := min(n, readChunk)
		p, err := d.read(k * size)
		if err != nil {
			return nil, err
		}
		for ; len(p) > 0; p = p[size:] {
			out = append(out, parse(p))
		}
		n -= k
	}
	return out, nil
}

// Decode reads one frame from r and reconstructs the becast. Decode never
// reads past the end of the frame, so frames can be decoded back to back
// from one stream; pass a *bufio.Reader when r is unbuffered.
//
// The control-info index (broadcast.CycleIndex) is derived state and is
// not encoded: broadcast.New rebuilds it from the checksum-verified
// control segment, so every decoded becast arrives indexed, answering
// exactly as the producer's did. Every rejection, checksum or structural,
// is an ErrBadFrame.
func Decode(r io.Reader) (*broadcast.Bcast, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err // includes io.EOF for clean stream end
	}
	if m := be.Uint32(magic[:]); m != Magic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFrame, m)
	}

	// Everything after the magic is checksummed.
	d := &decoder{r: r, buf: make([]byte, headerSize)}
	p, err := d.read(1)
	if err != nil {
		return nil, err
	}
	if p[0] != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadFrame, p[0])
	}
	if p, err = d.read(headerSize - 5); err != nil {
		return nil, err
	}
	cycle := model.Cycle(be.Uint64(p))
	committed := be.Uint32(p[8:])
	totalItems := be.Uint32(p[12:])
	if totalItems > maxSegment {
		return nil, fmt.Errorf("%w: totalItems %d", ErrBadFrame, totalItems)
	}

	report, err := readSegment(d, reportSize, parseReport)
	if err != nil {
		return nil, err
	}
	delta := sg.Delta{Cycle: cycle}
	if delta.Nodes, err = readSegment(d, txSize, parseTx); err != nil {
		return nil, err
	}
	if delta.Edges, err = readSegment(d, edgeSize, parseEdge); err != nil {
		return nil, err
	}
	entries, err := readSegment(d, entrySize, parseEntry)
	if err != nil {
		return nil, err
	}
	overflow, err := readSegment(d, oldVersionSize, parseOldVersion)
	if err != nil {
		return nil, err
	}

	want := d.crc
	if p, err = d.read(4); err != nil {
		return nil, err
	}
	if got := be.Uint32(p); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch %#x != %#x", ErrBadFrame, got, want)
	}
	// A checksum-valid frame can still be structurally unusable (an
	// overflow pointer out of range, an empty data segment, an SG delta
	// that breaks commit order); those are bad frames too, so a tuner
	// counts and resyncs past them instead of failing.
	b, err := broadcast.New(cycle, report, delta, entries, overflow, int(committed), int(totalItems))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return b, nil
}

// DecodeBytes decodes a single frame held in memory — the fault layer's
// entry point for checking whether a damaged frame still passes the
// checksum. Trailing bytes beyond the frame are ignored.
func DecodeBytes(frame []byte) (*broadcast.Bcast, error) {
	return Decode(bytes.NewReader(frame))
}

// frameErr maps a mid-frame EOF to ErrUnexpectedEOF so clean end-of-stream
// (EOF before the magic) stays distinguishable.
func frameErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

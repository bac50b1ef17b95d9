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

// initialSegmentCap caps the capacity pre-allocated for a segment before
// its elements have actually been read. A corrupt length field can claim
// up to maxSegment elements; growing by append instead of trusting the
// field keeps a damaged frame from forcing a huge allocation before the
// decode fails.
const initialSegmentCap = 4096

// segCap clamps a decoded length field to a safe pre-allocation size.
func segCap(n int) int {
	if n > initialSegmentCap {
		return initialSegmentCap
	}
	return n
}

// Encode serializes a becast into a frame.
func Encode(b *broadcast.Bcast) ([]byte, error) {
	if b == nil || len(b.Entries) == 0 {
		return nil, fmt.Errorf("%w: nil or empty becast", ErrBadFrame)
	}
	var buf bytes.Buffer
	//lint:allow hotalloc two helper closures per frame encode: once per cycle on air, not per client
	w := func(v any) {
		// bytes.Buffer writes cannot fail.
		_ = binary.Write(&buf, binary.BigEndian, v)
	}
	//lint:allow hotalloc two helper closures per frame encode: once per cycle on air, not per client
	writeTx := func(t model.TxID) {
		w(uint64(t.Cycle))
		w(t.Seq)
	}
	w(Magic)
	w(Version)
	w(uint64(b.Cycle))
	w(uint32(b.NumCommitted))
	w(uint32(b.TotalItems))

	w(uint32(len(b.Report)))
	for _, e := range b.Report {
		w(uint32(e.Item))
		writeTx(e.FirstWriter)
	}
	w(uint32(len(b.Delta.Nodes)))
	for _, n := range b.Delta.Nodes {
		writeTx(n)
	}
	w(uint32(len(b.Delta.Edges)))
	for _, e := range b.Delta.Edges {
		writeTx(e.From)
		writeTx(e.To)
	}
	w(uint32(len(b.Entries)))
	for _, e := range b.Entries {
		w(uint32(e.Item))
		w(int64(e.Version.Value))
		w(uint64(e.Version.Cycle))
		writeTx(e.Version.Writer)
		w(int32(e.Overflow))
	}
	w(uint32(len(b.Overflow)))
	for _, ov := range b.Overflow {
		w(uint32(ov.Item))
		w(int64(ov.Version.Value))
		w(uint64(ov.Version.Cycle))
		writeTx(ov.Version.Writer)
	}
	sum := crc32.ChecksumIEEE(buf.Bytes()[4:])
	w(sum)
	if buf.Len() > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, buf.Len())
	}
	return buf.Bytes(), nil
}

// Decode reads one frame from r and reconstructs the becast. Decode never
// reads past the end of the frame, so frames can be decoded back to back
// from one stream; pass a *bufio.Reader for performance (Decode issues
// many small reads).
//
// The control-info index (broadcast.CycleIndex) is derived state and is
// not encoded: broadcast.New rebuilds it from the checksum-verified
// control segment, so every decoded becast arrives indexed, answering
// exactly as the producer's did. Every rejection, checksum or structural,
// is an ErrBadFrame.
func Decode(r io.Reader) (*broadcast.Bcast, error) {
	br := r
	var magic uint32
	if err := binary.Read(br, binary.BigEndian, &magic); err != nil {
		return nil, err // includes io.EOF for clean stream end
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFrame, magic)
	}

	// Everything after the magic is checksummed; tee it.
	sum := crc32.NewIEEE()
	tr := io.TeeReader(br, sum)
	rd := func(v any) error { return binary.Read(tr, binary.BigEndian, v) }
	readTx := func() (model.TxID, error) {
		var c uint64
		var s uint32
		if err := rd(&c); err != nil {
			return model.TxID{}, err
		}
		if err := rd(&s); err != nil {
			return model.TxID{}, err
		}
		return model.TxID{Cycle: model.Cycle(c), Seq: s}, nil
	}
	readLen := func() (int, error) {
		var n uint32
		if err := rd(&n); err != nil {
			return 0, err
		}
		if n > maxSegment {
			return 0, fmt.Errorf("%w: segment length %d", ErrBadFrame, n)
		}
		return int(n), nil
	}

	var version uint8
	if err := rd(&version); err != nil {
		return nil, frameErr(err)
	}
	if version != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadFrame, version)
	}
	var cycle uint64
	var committed, totalItems uint32
	if err := rd(&cycle); err != nil {
		return nil, frameErr(err)
	}
	if err := rd(&committed); err != nil {
		return nil, frameErr(err)
	}
	if err := rd(&totalItems); err != nil {
		return nil, frameErr(err)
	}
	if totalItems > maxSegment {
		return nil, fmt.Errorf("%w: totalItems %d", ErrBadFrame, totalItems)
	}

	n, err := readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	report := make([]broadcast.InvalidationEntry, 0, segCap(n))
	for i := 0; i < n; i++ {
		var item uint32
		if err := rd(&item); err != nil {
			return nil, frameErr(err)
		}
		tx, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		report = append(report, broadcast.InvalidationEntry{Item: model.ItemID(item), FirstWriter: tx})
	}

	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	delta := sg.Delta{Cycle: model.Cycle(cycle), Nodes: make([]model.TxID, 0, segCap(n))}
	for i := 0; i < n; i++ {
		tx, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		delta.Nodes = append(delta.Nodes, tx)
	}
	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	delta.Edges = make([]sg.Edge, 0, segCap(n))
	for i := 0; i < n; i++ {
		from, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		to, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		delta.Edges = append(delta.Edges, sg.Edge{From: from, To: to})
	}

	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	entries := make([]broadcast.Entry, 0, segCap(n))
	for i := 0; i < n; i++ {
		var item uint32
		var value int64
		var verCycle uint64
		var overflow int32
		if err := rd(&item); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&value); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&verCycle); err != nil {
			return nil, frameErr(err)
		}
		writer, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&overflow); err != nil {
			return nil, frameErr(err)
		}
		if overflow < -1 {
			return nil, fmt.Errorf("%w: entry %d overflow pointer %d", ErrBadFrame, i, overflow)
		}
		entries = append(entries, broadcast.Entry{
			Item: model.ItemID(item),
			Version: model.Version{
				Value: model.Value(value), Cycle: model.Cycle(verCycle), Writer: writer,
			},
			Overflow: int(overflow),
		})
	}

	n, err = readLen()
	if err != nil {
		return nil, frameErr(err)
	}
	overflow := make([]broadcast.OldVersion, 0, segCap(n))
	for i := 0; i < n; i++ {
		var item uint32
		var value int64
		var verCycle uint64
		if err := rd(&item); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&value); err != nil {
			return nil, frameErr(err)
		}
		if err := rd(&verCycle); err != nil {
			return nil, frameErr(err)
		}
		writer, err := readTx()
		if err != nil {
			return nil, frameErr(err)
		}
		overflow = append(overflow, broadcast.OldVersion{
			Item: model.ItemID(item),
			Version: model.Version{
				Value: model.Value(value), Cycle: model.Cycle(verCycle), Writer: writer,
			},
		})
	}

	want := sum.Sum32()
	var got uint32
	if err := binary.Read(br, binary.BigEndian, &got); err != nil {
		return nil, frameErr(err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch %#x != %#x", ErrBadFrame, got, want)
	}
	// A checksum-valid frame can still be structurally unusable (an
	// overflow pointer out of range, an empty data segment, an SG delta
	// that breaks commit order); those are bad frames too, so a tuner
	// counts and resyncs past them instead of failing.
	b, err := broadcast.New(model.Cycle(cycle), report, delta, entries, overflow, int(committed), int(totalItems))
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

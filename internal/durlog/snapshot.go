package durlog

import (
	"encoding/binary"
	"fmt"

	"bpush/internal/model"
	"bpush/internal/server"
)

// Snapshot is a recovery point: the server's complete durable state after
// Seq cycles were produced. A source restored from it, with the workload
// generator fast-forwarded past the first Seq cycles, continues the
// stream byte-identically — snapshots trade log-replay time for a little
// disk, they never change the stream.
type Snapshot struct {
	// Seq is the number of cycles that had been produced (and appended to
	// the log) when the snapshot was taken.
	Seq uint64
	// State is the server's exported durable state at that point.
	State server.State
}

// snapshotVersion guards the snapshot payload layout.
const snapshotVersion = 1

// Snapshot payload layout (all integers big-endian):
//
//	u8   payload version (1)
//	u64  seq
//	u64  server cycle
//	u32  item count
//	per item:
//	     i64 writeCount, u32 version count,
//	     per version: i64 value, u64 cycle, u64 writer cycle, u32 writer seq
//	u32  reader-entry count
//	per entry:
//	     u32 item, u32 reader count,
//	     per reader: u64 cycle, u32 seq
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	n := 1 + 8 + 8 + 4
	for _, it := range s.State.Items {
		n += 8 + 4 + len(it.Versions)*(8+8+8+4)
	}
	n += 4
	for _, re := range s.State.Readers {
		n += 4 + 4 + len(re.Readers)*(8+4)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint64(buf, s.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.State.Cycle))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.State.Items)))
	for _, it := range s.State.Items {
		buf = binary.BigEndian.AppendUint64(buf, uint64(it.WriteCount))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(it.Versions)))
		for _, v := range it.Versions {
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.Value))
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.Cycle))
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.Writer.Cycle))
			buf = binary.BigEndian.AppendUint32(buf, v.Writer.Seq)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.State.Readers)))
	for _, re := range s.State.Readers {
		buf = binary.BigEndian.AppendUint32(buf, uint32(re.Item))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(re.Readers)))
		for _, r := range re.Readers {
			buf = binary.BigEndian.AppendUint64(buf, uint64(r.Cycle))
			buf = binary.BigEndian.AppendUint32(buf, r.Seq)
		}
	}
	return buf, nil
}

// decodeSnapshot is the inverse of encodeSnapshot with full bounds
// checking: any truncation or inconsistency is a clean error (the record
// CRC has already passed, so an error here means a version skew or an
// encoder bug, not disk damage).
func decodeSnapshot(p []byte) (*Snapshot, error) {
	d := &snapDecoder{p: p}
	ver := d.u8()
	if d.err == nil && ver != snapshotVersion {
		return nil, fmt.Errorf("durlog: unsupported snapshot version %d", ver)
	}
	s := &Snapshot{}
	s.Seq = d.u64()
	s.State.Cycle = model.Cycle(d.u64())
	numItems := d.u32()
	if d.err == nil && uint64(numItems)*12 > uint64(len(p)) {
		return nil, fmt.Errorf("durlog: snapshot claims %d items in %d bytes", numItems, len(p))
	}
	for i := uint32(0); i < numItems && d.err == nil; i++ {
		it := server.ItemState{WriteCount: int64(d.u64())}
		nv := d.u32()
		if d.err == nil && uint64(nv)*28 > uint64(len(p)) {
			return nil, fmt.Errorf("durlog: snapshot claims %d versions in %d bytes", nv, len(p))
		}
		for j := uint32(0); j < nv && d.err == nil; j++ {
			it.Versions = append(it.Versions, model.Version{
				Value:  model.Value(d.u64()),
				Cycle:  model.Cycle(d.u64()),
				Writer: model.TxID{Cycle: model.Cycle(d.u64()), Seq: d.u32()},
			})
		}
		s.State.Items = append(s.State.Items, it)
	}
	numReaders := d.u32()
	if d.err == nil && uint64(numReaders)*8 > uint64(len(p)) {
		return nil, fmt.Errorf("durlog: snapshot claims %d reader entries in %d bytes", numReaders, len(p))
	}
	for i := uint32(0); i < numReaders && d.err == nil; i++ {
		re := server.ReaderEntry{Item: model.ItemID(d.u32())}
		nr := d.u32()
		if d.err == nil && uint64(nr)*12 > uint64(len(p)) {
			return nil, fmt.Errorf("durlog: snapshot claims %d readers in %d bytes", nr, len(p))
		}
		for j := uint32(0); j < nr && d.err == nil; j++ {
			re.Readers = append(re.Readers, model.TxID{Cycle: model.Cycle(d.u64()), Seq: d.u32()})
		}
		s.State.Readers = append(s.State.Readers, re)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(p) {
		return nil, fmt.Errorf("durlog: snapshot has %d trailing bytes", len(p)-d.off)
	}
	return s, nil
}

// snapDecoder is a bounds-checked big-endian cursor; the first overrun
// latches err and every later read returns zero.
type snapDecoder struct {
	p   []byte
	off int
	err error
}

func (d *snapDecoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.p) {
		d.err = fmt.Errorf("durlog: snapshot truncated at offset %d", d.off)
		return false
	}
	return true
}

func (d *snapDecoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.p[d.off]
	d.off++
	return v
}

func (d *snapDecoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.p[d.off : d.off+4])
	d.off += 4
	return v
}

func (d *snapDecoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.p[d.off : d.off+8])
	d.off += 8
	return v
}

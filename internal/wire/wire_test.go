package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/broadcast/broadcasttest"
	"bpush/internal/model"
	"bpush/internal/server"
	"bpush/internal/sg"
)

// buildBcast assembles a realistic becast via the server.
func buildBcast(t *testing.T) *broadcast.Bcast {
	t.Helper()
	srv, err := server.New(server.Config{DBSize: 12, MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	rw := func(items ...model.ItemID) model.ServerTx {
		var ops []model.Op
		for _, it := range items {
			ops = append(ops, model.Op{Kind: model.OpRead, Item: it}, model.Op{Kind: model.OpWrite, Item: it})
		}
		return model.ServerTx{Ops: ops}
	}
	if _, err := srv.CommitAndAdvance([]model.ServerTx{rw(2), rw(5, 7)}); err != nil {
		t.Fatal(err)
	}
	log, err := srv.CommitAndAdvance([]model.ServerTx{rw(2, 9), rw(5)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, log, broadcast.FlatProgram(12))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != b.Cycle || got.NumCommitted != b.NumCommitted {
		t.Errorf("header mismatch: %v/%d vs %v/%d", got.Cycle, got.NumCommitted, b.Cycle, b.NumCommitted)
	}
	if !reflect.DeepEqual(got.Report, b.Report) {
		t.Errorf("report mismatch:\n got %+v\nwant %+v", got.Report, b.Report)
	}
	if !reflect.DeepEqual(got.Entries, b.Entries) {
		t.Error("entries mismatch")
	}
	if !reflect.DeepEqual(got.Overflow, b.Overflow) {
		t.Errorf("overflow mismatch:\n got %+v\nwant %+v", got.Overflow, b.Overflow)
	}
	if !reflect.DeepEqual(got.Delta, b.Delta) {
		t.Errorf("delta mismatch:\n got %+v\nwant %+v", got.Delta, b.Delta)
	}
	// Behavioral equivalence: positions and overflow chains survive.
	for i := 1; i <= 12; i++ {
		id := model.ItemID(i)
		if got.Position(id) != b.Position(id) {
			t.Errorf("position of %v differs", id)
		}
		if !reflect.DeepEqual(got.OldVersionsOf(id), b.OldVersionsOf(id)) {
			t.Errorf("old versions of %v differ", id)
		}
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	stream.Write(frame)
	stream.Write(frame)
	r := bytes.NewReader(stream.Bytes())
	for i := 0; i < 2; i++ {
		if _, err := Decode(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := Decode(r); !errors.Is(err, io.EOF) {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = 99 // version byte
	if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	corrupted := 0
	for trial := 0; trial < 50; trial++ {
		mut := make([]byte, len(frame))
		copy(mut, frame)
		// Flip one byte after the header (avoid magic/version so we test
		// the checksum, not the header checks, and avoid the length
		// fields that can make the read run off the end).
		idx := 17 + rng.Intn(len(mut)-17)
		mut[idx] ^= 0xff
		if _, err := Decode(bytes.NewReader(mut)); err != nil {
			corrupted++
		}
	}
	if corrupted < 45 {
		t.Errorf("only %d/50 corruptions detected", corrupted)
	}
}

func TestDecodeTruncatedFrame(t *testing.T) {
	b := buildBcast(t)
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 20, len(frame) / 2, len(frame) - 2} {
		if _, err := Decode(bytes.NewReader(frame[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeRejectsHugeSegment(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x42, 0x50, 0x53, 0x48}) // magic
	buf.WriteByte(Version)
	buf.Write(make([]byte, 16))               // cycle + committed + totalItems
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // absurd report length
	if _, err := Decode(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame for huge segment", err)
	}

	// A length that passes the maxSegment bound but is followed by EOF
	// must fail having allocated only what was actually read, whichever
	// segment claims it.
	for seg := 0; seg < 5; seg++ {
		hdr := binary.BigEndian.AppendUint32(nil, Magic)
		hdr = append(hdr, Version)
		hdr = append(hdr, make([]byte, 16+4*seg)...)
		hdr = binary.BigEndian.AppendUint32(hdr, maxSegment)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBytes(hdr)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("segment %d: err = %v, want io.ErrUnexpectedEOF", seg, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("segment %d: truncated %d-element claim allocated %d bytes, want < 1 MiB", seg, maxSegment, d)
		}
	}
}

func TestEncodeRejectsEmpty(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

func TestRoundTripEmptyControl(t *testing.T) {
	// Cycle-1 becast: no report, no delta, no overflow.
	srv, err := server.New(server.Config{DBSize: 4, MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Report) != 0 || len(got.Overflow) != 0 || len(got.Delta.Nodes) != 0 {
		t.Errorf("empty control segments not preserved: %+v", got)
	}
}

func TestBroadcastNewValidation(t *testing.T) {
	if _, err := broadcast.New(1, nil, sg.Delta{}, nil, nil, 0, 0); err == nil {
		t.Error("empty entries accepted")
	}
	entries := []broadcast.Entry{{Item: 1, Overflow: 5}}
	if _, err := broadcast.New(1, nil, sg.Delta{}, entries, nil, 0, 0); err == nil {
		t.Error("out-of-range overflow pointer accepted")
	}
}

// benchBcast is the benchmarks' frame: a first-cycle becast of 1000 items.
func benchBcast(tb testing.TB) *broadcast.Bcast {
	tb.Helper()
	srv, err := server.New(server.Config{DBSize: 1000, MaxVersions: 3})
	if err != nil {
		tb.Fatal(err)
	}
	bc, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(1000))
	if err != nil {
		tb.Fatal(err)
	}
	return bc
}

func BenchmarkEncode(b *testing.B) {
	bc := benchBcast(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(bc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	frame, err := Encode(benchBcast(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecAllocations pins the codec's allocation profile: Encode
// writes into one exact-size buffer, and Decode allocates only what
// broadcast.New needs on the same segments plus a small constant.
func TestCodecAllocations(t *testing.T) {
	bc := benchBcast(t)
	frame, err := Encode(bc)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = Encode(bc) }); n != 1 {
		t.Errorf("Encode: %v allocs, want 1", n)
	}
	build := testing.AllocsPerRun(20, func() {
		if _, err := broadcast.New(bc.Cycle, bc.Report, bc.Delta, bc.Entries, bc.Overflow, bc.NumCommitted, bc.TotalItems); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBytes(frame); err != nil {
			t.Fatal(err)
		}
	})
	// This frame has one non-empty segment, so Decode adds its slice,
	// the header-sized read buffer and its one growth, the decoder and
	// the bytes.Reader.
	if slack := 5.0; decode > build+slack {
		t.Errorf("Decode: %v allocs, want at most broadcast.New's %v + %v", decode, build, slack)
	}
}

// TestDecodedIndexMatchesProducer: the index is derived state, so priming
// it leaves the frame unchanged, and the becast decoded from that frame
// arrives indexed, answering every query exactly like the producer's.
func TestDecodedIndexMatchesProducer(t *testing.T) {
	b := buildBcast(t)
	unprimed, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PrimeIndex(); err != nil {
		t.Fatal(err)
	}
	primed, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unprimed, primed) {
		t.Error("priming the index changed the encoded frame")
	}
	got, err := DecodeBytes(primed)
	if err != nil {
		t.Fatal(err)
	}
	if err := broadcasttest.IndexDiff(b, got); err != nil {
		t.Error(err)
	}
}

// TestDecodeWrapsStructuralRejections: a checksum-valid frame whose parts
// broadcast.New rejects is a bad frame like any other, so a tuner counts
// it and resyncs instead of failing with a transport error.
func TestDecodeWrapsStructuralRejections(t *testing.T) {
	encode := func(b *broadcast.Bcast) []byte {
		t.Helper()
		frame, err := Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	// Encode refuses an empty data segment, so that frame is built by
	// hand: the header, five zero segment lengths, and the checksum.
	body := append([]byte{Version}, make([]byte, 16+5*4)...)
	empty := binary.BigEndian.AppendUint32(nil, Magic)
	empty = append(empty, body...)
	empty = binary.BigEndian.AppendUint32(empty, crc32.ChecksumIEEE(body))

	one := []broadcast.Entry{{Item: 1, Overflow: -1}}
	tx := func(c model.Cycle) model.TxID { return model.TxID{Cycle: c} }
	rows := []struct {
		name  string
		frame []byte
	}{
		{"overflow-pointer", encode(&broadcast.Bcast{Cycle: 2, Entries: []broadcast.Entry{{Item: 1, Overflow: 3}}})},
		{"empty-segment", empty},
		{"backward-sg-edge", encode(&broadcast.Bcast{Cycle: 3, Entries: one,
			Delta: sg.Delta{Cycle: 3, Edges: []sg.Edge{{From: tx(2), To: tx(1)}}}})},
	}
	for _, r := range rows {
		if _, err := DecodeBytes(r.frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", r.name, err)
		}
	}
}

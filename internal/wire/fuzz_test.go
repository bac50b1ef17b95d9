package wire

import (
	"bytes"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/server"
)

// FuzzDecode drives the frame decoder with arbitrary bytes: it must never
// panic, only return errors or valid becasts that re-encode byte for
// byte (TestDecodeRejectsHugeSegment pins its bounded allocation). Valid
// frames are seeded so mutation explores deep into the format.
func FuzzDecode(f *testing.F) {
	srv, err := server.New(server.Config{DBSize: 8, MaxVersions: 2})
	if err != nil {
		f.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, broadcast.FlatProgram(8))
	if err != nil {
		f.Fatal(err)
	}
	frame, err := Encode(b)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x50, 0x53, 0x48})
	f.Add(append(frame[:20:20], 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded frame must re-encode to exactly the
		// bytes it was read from.
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("decode accepted bytes that re-encode differently")
		}
	})
}

// FuzzFrameCorruption models the fault injector's damage on real encoded
// frames: XOR a byte somewhere, then cut the frame at some length. Unlike
// FuzzDecode's arbitrary bytes, every input here is one mutation away from
// a valid frame — the adversarial neighborhood the checksum must police.
// Decode must either reject the damage or return a frame whose re-encoding
// is byte-identical to what it read (the flips cancelled out); silently
// decoding different bytes into data would hand garbage to a scheme.
func FuzzFrameCorruption(f *testing.F) {
	srv, err := server.New(server.Config{DBSize: 16, MaxVersions: 3})
	if err != nil {
		f.Fatal(err)
	}
	prog := broadcast.FlatProgram(16)
	var frames [][]byte
	var log *server.CycleLog
	for i := 0; i < 3; i++ {
		b, err := broadcast.Assemble(srv, log, prog)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := Encode(b)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
		item := model.ItemID(i*3 + 1)
		log, err = srv.CommitAndAdvance([]model.ServerTx{{Ops: []model.Op{
			{Kind: model.OpRead, Item: item},
			{Kind: model.OpWrite, Item: item},
		}}})
		if err != nil {
			f.Fatal(err)
		}
	}

	f.Add(uint8(0), uint32(5), uint8(0xff), uint32(0))
	f.Add(uint8(1), uint32(0), uint8(0x01), uint32(8))
	f.Add(uint8(2), uint32(100), uint8(0x80), uint32(50))

	f.Fuzz(func(t *testing.T, which uint8, pos uint32, mask uint8, cut uint32) {
		frame := frames[int(which)%len(frames)]
		damaged := append([]byte(nil), frame...)
		damaged[int(pos)%len(damaged)] ^= mask
		if n := int(cut) % (len(damaged) + 1); n < len(damaged) {
			damaged = damaged[:n]
		}
		got, err := Decode(bytes.NewReader(damaged))
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("accepted damaged frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, damaged[:len(re)]) {
			t.Fatalf("decode accepted damaged bytes as different data (mask %#x at %d, cut %d)",
				mask, pos, cut)
		}
	})
}

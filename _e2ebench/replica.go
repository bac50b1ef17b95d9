package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"

	"bpush/internal/broadcast"
	"bpush/internal/cyclesource"
	"bpush/internal/durlog"
	"bpush/internal/server"
	"bpush/internal/wire"
	"bpush/internal/workload"
)

// producerPoint is one producer operating point: what a cyclesource is
// built from.
type producerPoint struct {
	db, versions, workers int
	wl                    workload.ServerConfig
	seed                  int64
}

// paperWorkload is the paper's default update workload (Figure 4) with U
// updates spread over n transactions per cycle.
func paperWorkload(u, n int) workload.ServerConfig {
	return workload.ServerConfig{DBSize: 1000, UpdateRange: 500, Offset: 100, Theta: 0.95, TxPerCycle: n, UpdatesPerCycle: u, ReadsPerUpdate: 4}
}

func (p producerPoint) source(logDir string, memCycles int) (*cyclesource.Source, error) {
	return cyclesource.New(cyclesource.Config{
		DBSize:    p.db,
		Versions:  p.versions,
		Workers:   p.workers,
		Workload:  p.wl,
		Seed:      p.seed,
		LogDir:    logDir,
		MemCycles: memCycles,
	})
}

// frameDigests produces cycles 0..n-1 from an in-memory cyclesource at
// the point and returns the SHA-256 of each encoded frame: the reference
// the durable and replica checks compare against.
func frameDigests(p producerPoint, n int) ([][32]byte, error) {
	src, err := p.source("", 0)
	if err != nil {
		return nil, err
	}
	defer func() { _ = src.Close() }()
	out := make([][32]byte, n)
	for i := range out {
		b, err := src.Get(i)
		if err != nil {
			return nil, err
		}
		f, err := wire.Encode(b)
		if err != nil {
			return nil, err
		}
		out[i] = sha256.Sum256(f)
	}
	return out, nil
}

// runReplica drives the producer's stages directly — workload.ServerGen,
// server.CommitAndAdvance, broadcast.Assemble, Bcast.PrimeIndex,
// wire.Encode and, when dlog is non-nil, durlog.AppendCycle with the
// cyclesource snapshot cadence — for n cycles, timing each stage as a
// child of its cycle span. Every frame must be byte-equal to the
// reference digest of the same cycle, so the stage times describe the
// program's own production path. It returns the number of mismatched
// frames. Allocation counts bracket the commit, encode and decode calls,
// so nothing else may run meanwhile.
func runReplica(p producerPoint, n int, dlog *durlog.Log, ref [][32]byte, a *actor, tag string) (int, error) {
	srv, err := server.New(server.Config{DBSize: p.db, MaxVersions: p.versions, Workers: p.workers})
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewServerGen(p.wl, rand.New(rand.NewSource(p.seed)))
	if err != nil {
		return 0, err
	}
	prog := broadcast.FlatProgram(p.db)
	now := a.tr.now
	name := func(s string) string { return s + tag }
	var (
		cycle, generate, commit, commitAllocs = name("cycle"), name("workload.generate"), name("server.commit"), name("server.commit_allocs")
		assemble, prime                       = name("broadcast.assemble"), name("broadcast.prime_index")
		encode, encodeAllocs, frameBytes      = name("wire.encode"), name("wire.encode_allocs"), name("wire.frame_bytes")
		decode, decodeAllocs                  = name("wire.decode"), name("wire.decode_allocs")
		appendRec, snapshot                   = name("durlog.append"), name("durlog.snapshot")
	)
	bad := 0
	for i := 0; i < n; i++ {
		a.open(cycle)
		var log *server.CycleLog
		if i > 0 {
			t := now()
			txs := gen.Cycle()
			a.leaf(generate, t, now())
			m := allocs()
			t = now()
			log, err = srv.CommitAndAdvance(txs)
			a.leaf(commit, t, now())
			a.sample(commitAllocs, int64(allocs()-m))
			if err != nil {
				return bad, err
			}
		}
		t := now()
		b, err := broadcast.Assemble(srv, log, prog)
		a.leaf(assemble, t, now())
		if err != nil {
			return bad, err
		}
		t = now()
		_, err = b.PrimeIndex()
		a.leaf(prime, t, now())
		if err != nil {
			return bad, err
		}
		m := allocs()
		t = now()
		frame, err := wire.Encode(b)
		a.leaf(encode, t, now())
		a.sample(encodeAllocs, int64(allocs()-m))
		if err != nil {
			return bad, err
		}
		a.sample(frameBytes, int64(len(frame)))
		m = allocs()
		t = now()
		back, err := wire.DecodeBytes(frame)
		a.leaf(decode, t, now())
		a.sample(decodeAllocs, int64(allocs()-m))
		if err != nil {
			return bad, err
		}
		if dlog != nil {
			t = now()
			err = dlog.AppendCycle(b)
			a.leaf(appendRec, t, now())
			if err != nil {
				return bad, err
			}
			if seq := i + 1; seq%cyclesource.DefaultSnapshotEvery == 0 {
				t = now()
				err = dlog.AppendSnapshot(&durlog.Snapshot{Seq: uint64(seq), State: srv.ExportState()})
				a.leaf(snapshot, t, now())
				if err != nil {
					return bad, err
				}
			}
		}
		a.close()
		again, err := wire.Encode(back)
		if err != nil {
			return bad, err
		}
		if sha256.Sum256(frame) != ref[i] || !bytes.Equal(again, frame) {
			bad++
		}
	}
	a.flush()
	return bad, nil
}

// replayLog reopens a log the replica wrote, times the open and every
// ReadCycle, and checks each cycle read back re-encodes to the reference
// frame. It returns the number of mismatches.
func replayLog(dir string, n int, ref [][32]byte, a *actor, tag string) (int, error) {
	t := a.tr.now()
	dlog, err := durlog.Open(dir, durlog.Options{})
	a.leaf("durlog.open"+tag, t, a.tr.now())
	if err != nil {
		return 0, err
	}
	defer func() { _ = dlog.Close() }()
	if dlog.Cycles() != n {
		return 0, fmt.Errorf("durlog reopened with %d cycles, want %d", dlog.Cycles(), n)
	}
	a.sample("durlog.segments"+tag, int64(dlog.Segments()))
	bad := 0
	for i := 0; i < n; i++ {
		t := a.tr.now()
		b, err := dlog.ReadCycle(i)
		a.leaf("durlog.read"+tag, t, a.tr.now())
		if err != nil {
			return bad, err
		}
		f, err := wire.Encode(b)
		if err != nil {
			return bad, err
		}
		if sha256.Sum256(f) != ref[i] {
			bad++
		}
	}
	a.flush()
	return bad, nil
}

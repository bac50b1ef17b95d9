package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bpush/internal/broadcast"
	"bpush/internal/cyclesource"
	"bpush/internal/durlog"
	"bpush/internal/wire"
)

// durableRestarts is how many times each batch reopens its log and
// produces the next cycle; restart_ms is their median.
const durableRestarts = 5

// durablePoint is the durable source's producer: the paper's defaults,
// one version on air, a single producer worker.
func durablePoint(seed int64) producerPoint {
	return producerPoint{db: 1000, versions: 1, workers: 1, wl: paperWorkload(50, 10), seed: seed}
}

// durableSize is one batch: cycles logged and the in-memory window.
type durableSize struct {
	cycles, memCycles int
}

// durablePhase is the durable-catchup workload: batches over a fresh
// log directory each.
type durablePhase struct {
	tally
	p   producerPoint
	sz  durableSize
	dir string
	ref [][32]byte // frame digests of an uninterrupted in-memory source
	a   *actor     // traced only

	producePerS []float64
	catchupPerS []float64
	restartMS   []float64
	diskPerCyc  []float64
}

// newDurablePhase computes the reference frames every batch is checked
// against.
func newDurablePhase(seed int64, sz durableSize, dir string, tr *tracer) (*durablePhase, error) {
	d := &durablePhase{p: durablePoint(seed), sz: sz, dir: dir}
	var err error
	d.ref, err = frameDigests(d.p, sz.cycles+durableRestarts)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		d.a = tr.actor("durable-catchup")
	}
	return d, nil
}

func (d *durablePhase) done() {
	if d.a != nil {
		d.a.flush()
	}
}

func (d *durablePhase) warm() error {
	a := d.a
	d.a = nil
	err := d.step()
	d.a = a
	d.clear()
	d.producePerS, d.catchupPerS, d.restartMS, d.diskPerCyc = nil, nil, nil, nil
	return err
}

// step runs one batch: log a fixed number of cycles through a spilling
// source, replay them from cycle 0 as a late joiner (almost every read
// comes off disk), then reopen the log and produce the next cycle,
// several times.
func (d *durablePhase) step() error {
	p, sz, a := d.p, d.sz, d.a
	dir := filepath.Join(d.dir, fmt.Sprintf("batch-%d", d.steps))
	defer func() { _ = os.RemoveAll(dir) }()
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	src, err := p.source(dir, sz.memCycles)
	if err != nil {
		return err
	}
	d.setupS = append(d.setupS, time.Since(t0).Seconds())
	defer func() { _ = src.Close() }()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t := time.Now()
	for i := 0; i < sz.cycles; i++ {
		var s int64
		if a != nil {
			s = a.tr.now()
		}
		if _, err := src.Get(i); err != nil {
			return err
		}
		if a != nil {
			a.sample("cyclesource.produce", a.tr.now()-s)
		}
	}
	produce := time.Since(t)

	// The late joiner keeps what it heard so every frame can be checked
	// after the clock stops.
	heard := make([]*broadcast.Bcast, 0, sz.cycles)
	feed := src.NewFeed()
	spilled := sz.cycles - sz.memCycles
	t = time.Now()
	for i := 0; i < sz.cycles; i++ {
		var s int64
		if a != nil {
			s = a.tr.now()
		}
		b, err := feed.Next()
		if err != nil {
			return err
		}
		if a != nil {
			name := "cyclesource.window_get"
			if i < spilled {
				name = "cyclesource.spilled_get"
			}
			a.sample(name, a.tr.now()-s)
		}
		heard = append(heard, b)
	}
	catchup := time.Since(t)
	runtime.ReadMemStats(&ms1)

	d.producePerS = append(d.producePerS, float64(sz.cycles)/produce.Seconds())
	d.catchupPerS = append(d.catchupPerS, float64(sz.cycles)/catchup.Seconds())
	d.allocsPerOp = append(d.allocsPerOp, float64(ms1.Mallocs-ms0.Mallocs)/float64(2*sz.cycles))
	for i, b := range heard {
		d.attempted++
		f, err := wire.Encode(b)
		if err != nil || sha256.Sum256(f) != d.ref[i] {
			d.fail(1, "durable: replayed cycle %d differs from the frame produced", i)
		}
	}
	heard = nil
	d.heap()
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	d.diskPerCyc = append(d.diskPerCyc, float64(disk)/float64(sz.cycles))
	if err := src.Close(); err != nil {
		return err
	}

	// Restart: reopen the populated log and produce the next cycle, which
	// must equal the same cycle of an uninterrupted in-memory source.
	var restarts []float64
	for r := 0; r < durableRestarts; r++ {
		var s int64
		if a != nil {
			s = a.tr.now()
		}
		t := time.Now()
		src, err = p.source(dir, sz.memCycles)
		if err != nil {
			return err
		}
		next := sz.cycles + r
		b, err := src.Get(next)
		if err != nil {
			return err
		}
		restarts = append(restarts, float64(time.Since(t).Microseconds())/1e3)
		if a != nil {
			a.sample("cyclesource.restart", a.tr.now()-s)
		}
		d.attempted++
		f, err := wire.Encode(b)
		if err != nil || sha256.Sum256(f) != d.ref[next] {
			d.fail(1, "durable: cycle %d after restart differs from the uninterrupted source", next)
		}
		if err := src.Close(); err != nil {
			return err
		}
	}
	d.restartMS = append(d.restartMS, medianF(restarts))
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// durableTag suffixes the durable replica's sample names, keeping them
// apart from the live-point replica's.
const durableTag = "@durable"

// durableReplicaPass writes the durable point's log with the producer
// replica, then reopens and reads it back with durlog directly: the
// per-stage producer times and the durlog append, open and read times.
// It returns the mismatched frames.
func durableReplicaPass(seed int64, sz durableSize, dir string, tr *tracer) (int, error) {
	p := durablePoint(seed)
	ref, err := frameDigests(p, sz.cycles)
	if err != nil {
		return 0, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	dlog, err := durlog.Open(dir, durlog.Options{})
	if err != nil {
		return 0, err
	}
	a := tr.actor("durable-replica")
	bad, err := runReplica(p, sz.cycles, dlog, ref, a, durableTag)
	if cerr := dlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return bad, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return bad, err
	}
	records := sz.cycles + sz.cycles/cyclesource.DefaultSnapshotEvery
	a = tr.actor("durable-replica")
	a.sample("durlog.bytes_per_record"+durableTag, disk/int64(records))
	n, err := replayLog(dir, sz.cycles, ref, a, durableTag)
	return bad + n, err
}

package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bpush/internal/core"
	"bpush/internal/fault"
	"bpush/internal/obs"
)

// sourceRun executes cfg once over its own source and returns its metrics,
// the canonical JSONL traces (client and producer streams) and the number
// of cycles the source produced.
func sourceRun(t *testing.T, cfg Config) (*Metrics, []byte, []byte, uint64) {
	t.Helper()
	var cbuf, sbuf bytes.Buffer
	cw, sw := obs.NewJSONL(&cbuf), obs.NewJSONL(&sbuf)
	cfg.Recorder = cw
	cfg.SourceRecorder = sw
	src, err := cfg.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	m, err := runClient(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	produced := src.Produced()
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.Err() != nil || sw.Err() != nil {
		t.Fatalf("trace write errors: %v / %v", cw.Err(), sw.Err())
	}
	return m, cbuf.Bytes(), sbuf.Bytes(), produced
}

// decodedConfig returns cfg backed by a fresh durable log with a small
// memory window, so a reopened source serves every cycle from disk.
func decodedConfig(t *testing.T, cfg Config) Config {
	t.Helper()
	dcfg := cfg
	dcfg.LogDir = t.TempDir()
	dcfg.MemCycles = 8
	dcfg.SnapshotEvery = 10
	return dcfg
}

// assertIndexInvisible runs cfg with every consumer reading the index the
// producer primed, then runs the same client workload again with every
// cycle read back from the durable log — wire.Decode and broadcast.New
// rebuild each cycle's index from its frame — and requires the two
// executions to be observationally identical: equal Metrics and
// byte-identical client and producer traces. The shared index is an
// optimization of the one control-info derivation, never a behavior
// change, whichever side of the wire builds it.
func assertIndexInvisible(t *testing.T, cfg Config) {
	t.Helper()
	sm, sc, ss, produced := sourceRun(t, cfg)

	dcfg := decodedConfig(t, cfg)
	trace1 := durPhase1(t, dcfg, int(produced))

	var cbuf, sbuf bytes.Buffer
	cw, sw := obs.NewJSONL(&cbuf), obs.NewJSONL(&sbuf)
	dcfg.Recorder = cw
	dcfg.SourceRecorder = sw
	src, err := dcfg.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	if got := src.Produced(); got != produced {
		t.Fatalf("reopened source Produced() = %d, want %d", got, produced)
	}
	dm, err := runClient(dcfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Produced(); got != produced {
		t.Fatalf("decoded run produced %d new cycles; every cycle must come from the log", got-produced)
	}
	if cw.Err() != nil || sw.Err() != nil {
		t.Fatalf("trace write errors: %v / %v", cw.Err(), sw.Err())
	}

	if !reflect.DeepEqual(sm, dm) {
		t.Errorf("metrics differ between producer-primed and decoded index:\nshared:  %+v\ndecoded: %+v", sm, dm)
	}
	if len(sc) == 0 {
		t.Fatalf("empty client trace")
	}
	if !bytes.Equal(sc, cbuf.Bytes()) {
		t.Errorf("client traces differ between producer-primed and decoded index (%d vs %d bytes)", len(sc), cbuf.Len())
	}
	joined := append(append([]byte(nil), trace1...), sbuf.Bytes()...)
	if !bytes.Equal(ss, joined) {
		t.Errorf("producer traces differ between producer-primed and decoded index (%d vs %d bytes)", len(ss), len(joined))
	}
}

// TestSharedIndexDifferential is the full differential sweep: every scheme,
// at item granularity and (where the method defines it) bucket granularity,
// across eight seeds. Runs over the producer-primed index and over indexes
// rebuilt from decoded frames must be byte-identical.
func TestSharedIndexDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed differential sweep")
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"inv-only", core.Options{Kind: core.KindInvOnly}},
		{"inv-only-bucket", core.Options{Kind: core.KindInvOnly, CacheSize: 40, BucketGranularity: 8}},
		{"vcache", core.Options{Kind: core.KindVCache, CacheSize: 40}},
		{"vcache-bucket", core.Options{Kind: core.KindVCache, CacheSize: 40, BucketGranularity: 8}},
		{"multiversion", core.Options{Kind: core.KindMVBroadcast}},
		{"mv-cache", core.Options{Kind: core.KindMVCache, CacheSize: 40, OldFraction: 0.6}},
		{"mv-cache-bucket", core.Options{Kind: core.KindMVCache, CacheSize: 40, BucketGranularity: 8}},
		{"sgt", core.Options{Kind: core.KindSGT, CacheSize: 40}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range differentialSeeds {
				cfg := testConfig(v.opts.Kind, v.opts.CacheSize)
				cfg.Scheme = v.opts
				cfg.Seed = seed
				cfg.Queries = 80
				cfg.Warmup = 10
				cfg.Check = false
				if v.opts.Kind == core.KindMVBroadcast {
					cfg.ServerVersions = 6
				}
				assertIndexInvisible(t, cfg)
				if t.Failed() {
					t.Fatalf("divergence at seed %d", seed)
				}
			}
		})
	}
}

// TestSharedIndexDifferentialUnderFaults adds the fault layer on top:
// corrupted-but-decodable and truncated frames reach the client as fresh
// becasts built through broadcast.New, so a chaos run mixes indexes from
// the producer, the corrupt path and the durable log. The mix must still
// match a run over the producer-primed index.
func TestSharedIndexDifferentialUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault differential sweep")
	}
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"corrupt-heavy", fault.Plan{Corrupt: 0.3}},
		{"chaos", fault.Plan{Drop: 0.05, Corrupt: 0.1, Truncate: 0.05, Duplicate: 0.05, Reorder: 0.03}},
	}
	for _, p := range plans {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, seed := range differentialSeeds[:4] {
				cfg := testConfig(core.KindInvOnly, 40)
				cfg.Seed = seed
				cfg.Queries = 60
				cfg.Warmup = 10
				cfg.Check = false
				cfg.Fault = p.plan
				assertIndexInvisible(t, cfg)
				if t.Failed() {
					t.Fatalf("divergence at seed %d", seed)
				}
			}
		})
	}
}

// TestSharedIndexDifferentialFleet extends the property to fleets: many
// clients sharing one producer's index must produce exactly the metrics
// and traces of a fleet that reads every cycle back from the durable log.
func TestSharedIndexDifferentialFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet differential")
	}
	const clients = 5
	base := testConfig(core.KindSGT, 40)
	base.Queries = 40
	base.Warmup = 5
	base.Check = false
	base.Parallel = 2

	// run executes the fleet over cfg's source; a positive want asserts the
	// source already holds want cycles and produces none while the fleet runs.
	run := func(cfg Config, want uint64) ([]Metrics, []byte, uint64) {
		bufs := make([]bytes.Buffer, clients)
		recs := make([]*obs.JSONL, clients)
		for i := range recs {
			recs[i] = obs.NewJSONL(&bufs[i])
		}
		cfg.RecorderFor = func(i int) obs.Recorder { return recs[i] }
		src, err := cfg.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = src.Close() }()
		if want > 0 && src.Produced() != want {
			t.Fatalf("reopened fleet source Produced() = %d, want %d", src.Produced(), want)
		}
		fm, err := runFleet(cfg, src, clients)
		if err != nil {
			t.Fatal(err)
		}
		produced := src.Produced()
		if want > 0 && produced != want {
			t.Fatalf("decoded fleet produced %d new cycles; every cycle must come from the log", produced-want)
		}
		var out bytes.Buffer
		for i := range bufs {
			if recs[i].Err() != nil {
				t.Fatalf("client %d trace error: %v", i, recs[i].Err())
			}
			fmt.Fprintf(&out, "client %d\n", i)
			out.Write(bufs[i].Bytes())
		}
		perClient := make([]Metrics, len(fm.PerClient))
		for i, m := range fm.PerClient {
			perClient[i] = *m
		}
		return perClient, out.Bytes(), produced
	}

	sharedM, sharedT, produced := run(base, 0)
	dcfg := decodedConfig(t, base)
	durPhase1(t, dcfg, int(produced))
	decodedM, decodedT, _ := run(dcfg, produced)

	if !reflect.DeepEqual(sharedM, decodedM) {
		t.Errorf("fleet metrics differ between producer-primed and decoded index")
	}
	if len(sharedT) == 0 {
		t.Fatalf("empty fleet trace")
	}
	if !bytes.Equal(sharedT, decodedT) {
		t.Errorf("fleet traces differ between producer-primed and decoded index")
	}
}

package sim

import (
	"bytes"
	"fmt"
	"testing"

	"bpush/internal/core"
	"bpush/internal/fault"
	"bpush/internal/obs"
)

func traceConfig() Config {
	cfg := DefaultConfig()
	cfg.Queries = 200
	cfg.Warmup = 20
	cfg.Scheme = core.Options{Kind: core.KindInvOnly, CacheSize: 100}
	cfg.DisconnectProb = 0.05
	return cfg
}

// traceRun executes one single-client run and returns the client-side and
// producer-side JSONL streams.
func traceRun(t *testing.T, cfg Config) (client, source []byte) {
	t.Helper()
	var cbuf, sbuf bytes.Buffer
	cw, sw := obs.NewJSONL(&cbuf), obs.NewJSONL(&sbuf)
	cfg.Recorder = cw
	cfg.SourceRecorder = sw
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if cw.Err() != nil || sw.Err() != nil {
		t.Fatalf("trace write errors: %v / %v", cw.Err(), sw.Err())
	}
	return cbuf.Bytes(), sbuf.Bytes()
}

// TestTraceDeterministicBytes is the observability acceptance bar: two runs
// of the same seed must emit byte-identical JSONL traces, on both the
// client and the producer side. Events are virtual-timed (cycle, offset)
// and float-free, so nothing about the host — wallclock, scheduling, map
// order — can leak into the stream.
func TestTraceDeterministicBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"inv-only", func(cfg *Config) {}},
		{"multiversion", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindMVBroadcast}
			cfg.ServerVersions = 3
		}},
		{"sgt", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
		}},
		{"faults", func(cfg *Config) {
			cfg.DisconnectProb = 0
			cfg.Fault = fault.Plan{Drop: 0.05, Duplicate: 0.03, Reorder: 0.02}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := traceConfig()
			tc.mod(&cfg)
			c1, s1 := traceRun(t, cfg)
			c2, s2 := traceRun(t, cfg)
			if len(c1) == 0 {
				t.Fatalf("empty client trace")
			}
			if !bytes.Equal(c1, c2) {
				t.Fatalf("client traces differ across same-seed runs")
			}
			if !bytes.Equal(s1, s2) {
				t.Fatalf("producer traces differ across same-seed runs")
			}
		})
	}
}

// fleetTrace runs a fleet with one JSONL recorder per client and returns
// the streams concatenated in client index order.
func fleetTrace(t *testing.T, cfg Config, clients int) []byte {
	t.Helper()
	bufs := make([]bytes.Buffer, clients)
	recs := make([]*obs.JSONL, clients)
	for i := range recs {
		recs[i] = obs.NewJSONL(&bufs[i])
	}
	// The factory runs on pool workers; it must be safe to call
	// concurrently, which handing out pre-built recorders is.
	cfg.RecorderFor = func(i int) obs.Recorder { return recs[i] }
	if _, err := RunFleet(cfg, clients); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for i := range bufs {
		if recs[i].Err() != nil {
			t.Fatalf("client %d trace error: %v", i, recs[i].Err())
		}
		out.Write(bufs[i].Bytes())
	}
	return out.Bytes()
}

// TestFleetTraceParallelMatchesSerial extends the fleet's
// worker-invariance guarantee to traces: with one recorder per client, a
// parallel fleet produces exactly the bytes a serial one does. This is why
// Config.RecorderFor exists — a single shared sink would interleave client
// streams in pool-scheduling order.
func TestFleetTraceParallelMatchesSerial(t *testing.T) {
	const clients = 6
	cfg := traceConfig()
	cfg.Queries = 60
	cfg.Warmup = 10

	serial := cfg
	serial.Parallel = 1
	parallel := cfg
	parallel.Parallel = 4

	st := fleetTrace(t, serial, clients)
	pt := fleetTrace(t, parallel, clients)
	if len(st) == 0 {
		t.Fatalf("empty fleet trace")
	}
	if !bytes.Equal(st, pt) {
		t.Fatalf("fleet traces differ between serial and parallel execution")
	}
}

// TestAggregatorMatchesMetrics pins the contract that makes traces
// trustworthy: folding a client's event stream through obs.Aggregator
// recovers, bit for bit, the per-client quantities sim.Metrics reports.
// Warmup is zero because the recorder sees every query while Metrics
// exclude the warmup phase. Rows run at traceConfig's DisconnectProb
// 0.05 unless they say otherwise.
func TestAggregatorMatchesMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"inv-only", func(cfg *Config) {}},
		{"inv-only-connected", func(cfg *Config) { cfg.DisconnectProb = 0 }},
		{"vcache", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindVCache, CacheSize: 100}
		}},
		{"multiversion", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindMVBroadcast}
			cfg.ServerVersions = 2
		}},
		{"mvcache", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindMVCache, CacheSize: 100}
		}},
		{"sgt", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
		}},
		{"noise", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
			cfg.DisconnectProb = 0
			cfg.Fault = mustPlan(t, "noise")
		}},
		{"chaos", func(cfg *Config) {
			cfg.Scheme = core.Options{Kind: core.KindMVCache, CacheSize: 100}
			cfg.DisconnectProb = 0
			cfg.Fault = mustPlan(t, "chaos")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := traceConfig()
			cfg.Warmup = 0
			cfg.Queries = 250
			tc.mod(&cfg)
			agg := obs.NewAggregator()
			cfg.Recorder = agg
			m, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := agg.Summary()

			if s.Method != m.Method {
				t.Errorf("Method = %q, want %q", s.Method, m.Method)
			}
			ints := []struct {
				name      string
				got, want int
			}{
				{"Queries", s.Queries, m.Queries},
				{"Committed", s.Committed, m.Committed},
				{"Aborted", s.Aborted, m.Aborted},
				{"CyclesMissed", s.CyclesMissed, m.MissedCycles},
			}
			for _, c := range ints {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
				}
			}
			floats := []struct {
				name      string
				got, want float64
			}{
				{"AbortRate", s.AbortRate, m.AbortRate},
				{"AcceptRate", s.AcceptRate, m.AcceptRate},
				{"MeanLatency", s.MeanLatency, m.MeanLatency},
				{"MeanLatencySlots", s.MeanLatencySlots, m.MeanLatencySlots},
				{"MeanSpan", s.MeanSpan, m.MeanSpan},
				{"MeanStaleness", s.MeanStaleness, m.MeanStaleness},
				{"MeanReadAge", s.MeanReadAge, m.MeanReadAge},
				{"CacheHitRate", s.CacheHitRate, m.CacheHitRate},
				{"OverflowReadRate", s.OverflowReadRate, m.OverflowReadRate},
			}
			for _, c := range floats {
				if c.got != c.want {
					t.Errorf("%s = %x, want %x", c.name, c.got, c.want)
				}
			}
			if m.Aborted == 0 {
				t.Logf("note: no aborts in %s run", tc.name)
			}
		})
	}
}

func mustPlan(t *testing.T, name string) fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMetricsExcludeWarmup pins the warm-up boundary: the Summary a run
// reports is exactly what a fresh aggregator folds from the run-begin
// event and every event after the Warmup-th query outcome.
func TestMetricsExcludeWarmup(t *testing.T) {
	const warmup = 37
	cfg := traceConfig()
	cfg.Warmup = warmup
	cfg.Queries = 150
	cfg.Scheme = core.Options{Kind: core.KindSGT, CacheSize: 100}
	var buf bytes.Buffer
	cfg.Recorder = obs.NewJSONL(&buf)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	agg := obs.NewAggregator()
	outcomes := 0
	for _, e := range events {
		if e.Type == obs.TypeRunBegin || outcomes >= warmup {
			agg.Record(e)
		}
		if e.Type == obs.TypeCommit || e.Type == obs.TypeAbort {
			outcomes++
		}
	}
	if outcomes != warmup+cfg.Queries {
		t.Fatalf("trace holds %d query outcomes, want %d", outcomes, warmup+cfg.Queries)
	}
	if got := agg.Summary(); got != m.Summary {
		t.Fatalf("post-warm-up fold differs from Metrics:\nfold:    %+v\nmetrics: %+v", got, m.Summary)
	}
	if m.Queries != cfg.Queries {
		t.Fatalf("Queries = %d, want %d", m.Queries, cfg.Queries)
	}
}

// TestTraceRoundTripThroughReader closes the loop end to end: a recorded
// run decodes back into events, and re-aggregating the decoded events
// yields the recorded run's Summary. This is the property the
// bpush-inspect trace subcommand relies on.
func TestTraceRoundTripThroughReader(t *testing.T) {
	cfg := traceConfig()
	cfg.Warmup = 0
	cfg.Queries = 100
	var buf bytes.Buffer
	agg := obs.NewAggregator()
	cfg.Recorder = obs.Tee(obs.NewJSONL(&buf), agg)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatalf("no events decoded")
	}
	re := obs.NewAggregator()
	for _, e := range events {
		re.Record(e)
	}
	if fmt.Sprintf("%+v", re.Summary()) != fmt.Sprintf("%+v", agg.Summary()) {
		t.Fatalf("re-aggregated summary differs:\nlive:    %+v\ndecoded: %+v", agg.Summary(), re.Summary())
	}
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"bpush/internal/wire"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func tinyConfig(t *testing.T, workload string) config {
	t.Helper()
	cfg, err := parseFlags([]string{"--workload", workload, "--seed", "7", "--seconds", "0.2", "--workdir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.size = tinySizes
	return cfg
}

// TestTinyPasses runs every workload at the tiny size with tracing on and
// checks what the result line promises: every metric emitted, with a
// unit and a direction and a well-formed name, no correctness
// violation, and no calls into the layers a workload bypasses.
func TestTinyPasses(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(t, wl)
			tr := newTracer()
			p, err := runPass(cfg, 0, tr, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(p.errs) != 0 || p.failed != 0 || p.attempted == 0 {
				t.Fatalf("attempted %d failed %d: %v", p.attempted, p.failed, p.errs)
			}
			for _, m := range endToEnd {
				v, ok := p.e2e[m.name]
				if !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (present %v); want a positive value", m.name, v, ok)
				}
			}
			layers := perLayerValues(tr, p)
			for _, m := range perLayer {
				if _, ok := layers[m.name]; !ok {
					t.Errorf("per-layer %s not emitted", m.name)
				}
			}
			for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
				if !nameRE.MatchString(m.name) || m.unit == "" || (m.better != "lower" && m.better != "higher") {
					t.Errorf("metric %+v: bad name, unit or direction", m)
				}
			}
			bypassed := map[string][]string{
				"fleet-read":      {"wire", "durlog", "netcast"},
				"durable-catchup": {"core"},
			}
			for phase, layers := range bypassed {
				for _, layer := range layers {
					if n := tr.layerCalls(phase, layer); n != 0 {
						t.Errorf("%s recorded %d calls into %s, which it bypasses", phase, n, layer)
					}
				}
			}
			for phase, layers := range map[string][]string{"fleet-read": {"core", "client", "cyclesource"}, "live-write": {"core", "client"}} {
				for _, layer := range layers {
					if tr.layerCalls(phase, layer) == 0 {
						t.Errorf("%s recorded no calls into %s", phase, layer)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d = %q, want %q", i, w.Name, workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %+v with a bound in (0, 0.25]", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, want)
		}
	}
}

// TestGateCatchesCorruptFrame feeds the durable check a frame that
// differs from the one produced in a single byte.
func TestGateCatchesCorruptFrame(t *testing.T) {
	cfg := tinyConfig(t, "durable-catchup")
	d, err := newDurablePhase(cfg.seed, cfg.size.durable, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := d.p.source("", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)/2] ^= 1
	d.ref[3] = sha256.Sum256(frame)
	if err := d.step(); err != nil {
		t.Fatal(err)
	}
	if d.failed != 1 || len(d.errs) != 1 {
		t.Fatalf("corrupted frame: failed %d, errs %v; want exactly one violation", d.failed, d.errs)
	}
	res := finish(os.Stderr, &result{Correct: true, Attempted: d.attempted}, d.errs)
	if res.Correct {
		t.Fatal("a violation left the result correct")
	}
}

// TestGateCatchesCountMismatch makes sim.RunFleet's expected counts
// disagree with the benchmark's own fleet by one commit.
func TestGateCatchesCountMismatch(t *testing.T) {
	cfg := tinyConfig(t, "fleet-read")
	f := newFleetPhase(cfg.seed, cfg.size.fleet, cfg.workers, nil)
	if f.failed != 0 {
		t.Fatalf("oracle pass failed: %v", f.errs)
	}
	f.want[0][2].PerClient[1].Committed++
	if err := f.step(); err != nil {
		t.Fatal(err)
	}
	if f.failed == 0 || len(f.errs) != 1 {
		t.Fatalf("count mismatch: failed %d, errs %v; want one violation", f.failed, f.errs)
	}
}

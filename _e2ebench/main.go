// Command e2ebench is the repository's end-to-end, layer-attributed
// benchmark. One process runs three workloads — a closed-loop query fleet
// over the simulator's shared cycle stream (fleet-read), a manually
// ticked netcast station with two live scheme clients at a write-heavy
// point (live-write), and a spilling durable cycle log replayed by a late
// joiner and reopened (durable-catchup) — checks every output, and prints
// one JSON result line. The --workload flag names the workload that gets
// half of the measured time; the other two share the rest, so every run
// measures every end-to-end metric. With --trace 1 it also makes a traced
// pass that times the calls into each module from this package's own
// wrappers and reports per-layer metrics and the tracing overhead.
//
// Usage (from the repository root):
//
//	bash _e2ebench/run.sh --workload fleet-read --seed 1 --seconds 32 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads are the names --workload accepts.
var workloads = []string{"fleet-read", "live-write", "durable-catchup"}

// sizes fixes the work of one round, session and batch.
type sizes struct {
	fleet         fleetSize
	liveCycles    int // cycles aired per live session after the warm-up frame
	durable       durableSize
	replicaCycles int // cycles the live-point producer replica drives
	minPrimary    int // rounds, sessions or batches the named workload runs at least
}

// fullSizes is every real run's size.

var fullSizes = sizes{
	fleet:         fleetSize{clients: 128, warmup: 2, queries: 12},
	liveCycles:    128,
	durable:       durableSize{cycles: 320, memCycles: 8},
	replicaCycles: 150,
	minPrimary:    3,
}

// tinySizes is the self-test's size: every path runs, in well under a
// second per phase. Only the self-test sets it.
var tinySizes = sizes{
	fleet:         fleetSize{clients: 3, warmup: 1, queries: 2},
	liveCycles:    12,
	durable:       durableSize{cycles: 24, memCycles: 4},
	replicaCycles: 6,
	minPrimary:    1,
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	workDir  string
	workers  int
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	wl := fs.String("workload", "fleet-read", "workload that gets half of the measured time: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 32, "measured seconds of the run (split between the passes with --trace 1)")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "e2ebench"), "directory for logs and the span file")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSizes, workDir: *workDir}
	if !contains(workloads, cfg.workload) {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive")
	}
	// Load generation never uses more worker goroutines, tuners or
	// producer workers than there are CPUs.
	cfg.workers = runtime.NumCPU()
	if cfg.workers > 2 {
		cfg.workers = 2
	}
	return cfg, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run makes the untraced pass and, with --trace 1, the traced pass, and
// returns the result line. Progress and the human-readable report go to
// w; nothing in them is parsed.
func run(cfg config, w io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	env := environment(cfg, dir)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", envLine)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The traced and untraced passes split the run, so the overhead
		// compares passes of the same length.
		budget /= 2
	}
	plain, err := runPass(cfg, budget, nil, filepath.Join(dir, "plain"))
	if err != nil {
		return nil, err
	}
	res := &result{Correct: len(plain.errs) == 0, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	report(w, "untraced", cfg, plain)
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: plain.e2e[m.name], Unit: m.unit}
		}
		return finish(w, res, plain.errs), nil
	}
	tr := newTracer()
	traced, err := runPass(cfg, budget, tr, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, err
	}
	report(w, "traced", cfg, traced)
	res.Correct = res.Correct && len(traced.errs) == 0
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	fmt.Fprintf(w, "tracing overhead (traced - untraced), workload %s:\n", cfg.workload)
	for _, m := range endToEnd {
		u, t := plain.e2e[m.name], traced.e2e[m.name]
		fmt.Fprintf(w, "  %-22s %14.4f %14.4f %+14.4f %-6s (%+.1f%%)\n", m.name, u, t, t-u, m.unit, pct(t-u, u))
	}
	layers := perLayerValues(tr, traced)
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	attributeBusy(w, tr, traced)
	spanFile := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeSpans(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s\n", spanFile)
	return finish(w, res, append(plain.errs, traced.errs...)), nil
}

func pct(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * d / base
}

// finish prints any correctness violations (at most a few) and marks the
// result.
func finish(w io.Writer, res *result, errs []string) *result {
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(w, "VIOLATION ... and %d more\n", len(errs)-i)
			break
		}
		fmt.Fprintf(w, "VIOLATION %s\n", e)
	}
	if len(errs) > 0 {
		res.Correct = false
		if res.Failed == 0 {
			res.Failed = len(errs)
		}
	}
	return res
}

// pass is one run of all three workloads.
type pass struct {
	fleet     *fleetPhase
	live      *livePhase
	durable   *durablePhase
	e2e       map[string]float64
	wall      time.Duration
	attempted int
	failed    int
	errs      []string

	fleetAllocs map[string]float64 // traced pass only
}

// runPass runs the three workloads interleaved: the named one gets half
// the budget and at least minPrimary steps, the other two a quarter
// each. The fleet always runs at least fleetSeeds rounds, so its
// outcome metrics cover every seed whatever the host's speed. With a tracer it then runs the producer-replica passes and the
// allocation probe, outside the budget.
func runPass(cfg config, budget time.Duration, tr *tracer, dir string) (*pass, error) {
	t0 := time.Now()
	p := &pass{
		fleet: newFleetPhase(cfg.seed, cfg.size.fleet, cfg.workers, tr),
		live:  newLivePhase(cfg.seed, cfg.workers, cfg.size.liveCycles, tr),
	}
	var err error
	if p.durable, err = newDurablePhase(cfg.seed, cfg.size.durable, filepath.Join(dir, "durable"), tr); err != nil {
		return nil, fmt.Errorf("durable-catchup: %w", err)
	}
	ws := []stepper{p.fleet, p.live, p.durable}
	weights := make([]float64, len(ws))
	mins := make([]int, len(ws))
	for i, name := range workloads {
		weights[i], mins[i] = 1, 1
		if name == cfg.workload {
			weights[i], mins[i] = 2, cfg.size.minPrimary
		}
	}
	mins[0] = max(mins[0], fleetSeeds) // ws[0] is the fleet
	if err := schedule(budget, ws, weights, mins); err != nil {
		return nil, err
	}
	for _, w := range ws {
		t := w.stats()
		p.attempted += t.attempted
		p.failed += t.failed
		p.errs = append(p.errs, t.errs...)
	}
	if tr != nil {
		if err := p.runTracedExtras(cfg, tr, dir); err != nil {
			return nil, err
		}
	}
	p.e2e = endToEndValues(cfg.workload, p)
	p.wall = time.Since(t0)
	return p, nil
}

// runTracedExtras runs the producer-replica passes (live and durable
// operating points) and the per-scheme allocation probe. Nothing else
// runs meanwhile, which the allocation brackets need.
func (p *pass) runTracedExtras(cfg config, tr *tracer, dir string) error {
	lp := livePoint(cfg.seed, cfg.workers)
	ref, err := frameDigests(lp, cfg.size.replicaCycles)
	if err != nil {
		return err
	}
	bad, err := runReplica(lp, cfg.size.replicaCycles, nil, ref, tr.actor("live-replica"), "")
	if err != nil {
		return fmt.Errorf("live replica: %w", err)
	}
	n, err := durableReplicaPass(cfg.seed, cfg.size.durable, filepath.Join(dir, "replica"), tr)
	if err != nil {
		return fmt.Errorf("durable replica: %w", err)
	}
	p.attempted += cfg.size.replicaCycles + 2*cfg.size.durable.cycles
	if bad+n > 0 {
		p.failed += bad + n
		p.errs = append(p.errs, fmt.Sprintf("producer replica: %d frames differ from cyclesource.Source.Get", bad+n))
	}
	p.fleetAllocs, err = fleetAllocProbe(cfg.seed, cfg.size.fleet)
	return err
}

// report prints one pass's end-to-end values and the facts behind them.
func report(w io.Writer, label string, cfg config, p *pass) {
	fmt.Fprintf(w, "%s pass (workload %s, seed %d, %.1fs):\n", label, cfg.workload, cfg.seed, p.wall.Seconds())
	fmt.Fprintf(w, "  fleet-read: %d rounds of %d clients x %d methods, %d measured queries/round, %d cycles from the busiest source\n",
		p.fleet.steps, cfg.size.fleet.clients, len(fleetMethods), p.fleet.queries, p.fleet.producedMax)
	fmt.Fprintf(w, "  live-write: %d sessions of %d cycles, %d delivery samples, %d live queries, live abort rate %.4f\n",
		p.live.steps, cfg.size.liveCycles, p.live.samples, p.live.queries, float64(p.live.aborted)/float64(p.live.queries))
	fmt.Fprintf(w, "  durable-catchup: %d batches of %d cycles (window %d)\n",
		p.durable.steps, cfg.size.durable.cycles, cfg.size.durable.memCycles)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.4f %-6s (%s is better)\n", m.name, p.e2e[m.name], m.unit, m.better)
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{
		{"queries_per_s", p.fleet.queriesPerS},
		{"cycles_per_s", p.live.cyclesPerS},
		{"produce_cycles_per_s", p.durable.producePerS},
		{"catchup_cycles_per_s", p.durable.catchupPerS},
		{"restart_ms", p.durable.restartMS},
		{"delivery_us_p99", p.live.p99s},
	} {
		fmt.Fprintf(w, "  per-step %-22s %s\n", s.name, fmtSeries(s.xs))
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", p.attempted, p.failed)
}

// fmtSeries renders per-step values in the order they were measured.
func fmtSeries(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// env is the provenance recorded with every result.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	LogFS      string  `json:"log_dir_fs"`
	Workers    int     `json:"load_workers"`
}

func environment(cfg config, dir string) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
		SourceHash: sourceHash(),
		Seed:       cfg.seed,
		Workload:   cfg.workload,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		LogFS:      fsType(dir),
		Workers:    cfg.workers,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory in the working directory;
// a checkout without one (an exported tree) reports "none", and the
// source hash identifies the code instead.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == name {
				return h
			}
		}
	}
	return "unknown"
}

// perLayerValues turns the traced pass into the per-layer metrics.
func perLayerValues(tr *tracer, p *pass) map[string]float64 {
	out := map[string]float64{}
	us := func(name string, q float64) float64 { v, _ := tr.quantile(name, q); return v / 1e3 }
	out["server.commit_us_p50"] = us("server.commit", 0.5)
	out["server.commit_us_p99"] = us("server.commit", 0.99)
	out["server.commit_allocs"] = tr.mean("server.commit_allocs")
	out["broadcast.assemble_us_p50"] = us("broadcast.assemble", 0.5)
	out["broadcast.prime_index_us_p50"] = us("broadcast.prime_index", 0.5)
	out["cyclesource.produce_us_p50"] = us("cyclesource.produce", 0.5)
	out["cyclesource.produce_us_p99"] = us("cyclesource.produce", 0.99)
	out["cyclesource.feed_wait_us_p50"] = us("cyclesource.feed_wait", 0.5)
	out["cyclesource.feed_wait_us_p99"] = us("cyclesource.feed_wait", 0.99)
	out["cyclesource.spilled_get_us_p50"] = us("cyclesource.spilled_get", 0.5)
	out["cyclesource.spilled_get_us_p99"] = us("cyclesource.spilled_get", 0.99)
	out["wire.encode_us_p50"] = us("wire.encode", 0.5)
	out["wire.decode_us_p50"] = us("wire.decode", 0.5)
	out["wire.encode_allocs"] = tr.mean("wire.encode_allocs")
	out["wire.decode_allocs"] = tr.mean("wire.decode_allocs")
	out["wire.frame_bytes"] = tr.mean("wire.frame_bytes")
	out["durlog.append_us_p50"] = us("durlog.append"+durableTag, 0.5)
	out["durlog.append_us_p99"] = us("durlog.append"+durableTag, 0.99)
	out["durlog.read_us_p50"] = us("durlog.read"+durableTag, 0.5)
	out["durlog.read_us_p99"] = us("durlog.read"+durableTag, 0.99)
	out["durlog.open_ms"] = tr.mean("durlog.open"+durableTag) / 1e6
	out["durlog.bytes_per_record"] = tr.mean("durlog.bytes_per_record" + durableTag)
	out["durlog.segments"] = tr.mean("durlog.segments" + durableTag)
	out["netcast.tick_us_p50"] = us("netcast.tick", 0.5)
	out["netcast.tick_us_p99"] = us("netcast.tick", 0.99)
	out["netcast.tuner_next_us_p50"] = us("netcast.tuner_next", 0.5)
	out["netcast.tuner_next_us_p99"] = us("netcast.tuner_next", 0.99)
	out["netcast.tick_wait_us_p50"] = us("netcast.tick_wait", 0.5)
	out["netcast.queue_depth_max"] = float64(p.live.depthMax)
	out["netcast.evictions"] = float64(p.live.evictions)
	out["netcast.drops"] = float64(p.live.drops)
	totals := p.fleet.totals()
	for mi, m := range fleetMethods {
		c := "core." + m.label + "."
		out[c+"new_cycle_us_p50"] = us(c+"new_cycle", 0.5)
		out[c+"new_cycle_us_p99"] = us(c+"new_cycle", 0.99)
		out[c+"serve_us_p50"] = us(c+"serve", 0.5)
		out[c+"commit_us_p50"] = us(c+"commit", 0.5)
		out[c+"allocs_per_cycle"] = p.fleetAllocs[m.label]
		t := totals[mi]
		out[c+"commit_ratio"] = float64(t.committed) / float64(t.committed+t.aborted)
		out["cache."+m.label+".hit_ratio"] = float64(t.cacheReads) / float64(t.reads)
		q := "client." + m.label + "."
		out[q+"query_us_p50"] = us(q+"query", 0.5)
		out[q+"query_us_p99"] = us(q+"query", 0.99)
		out[q+"reads_per_query"] = float64(t.reads) / float64(t.committed+t.aborted)
	}
	return out
}

// stressed names, per workload, the layers it is built to load.
var stressed = map[string][]string{
	"fleet-read":      {"core", "cache", "client"},
	"live-write":      {"server", "broadcast", "wire"},
	"durable-catchup": {"durlog", "wire"},
}

// attributeBusy splits each workload's traced busy time by layer and
// prints the shares. Calls the wrappers see directly are charged to
// their layer; a call that spans several layers — the station's tick,
// a spilling source's Get — is split with the station's own tier spans
// and the per-stage means of the producer replica at the same point.
func attributeBusy(w io.Writer, tr *tracer, p *pass) {
	// live-write: the station's tier spans split each tick; commit is
	// server work plus assembly and index priming, in the live replica's
	// proportions; decoding is charged at the replica's decode cost.
	commit, encode, onAir := float64(p.live.tierNS["commit"]), float64(p.live.tierNS["encode"]), float64(p.live.tierNS["on_air"])
	srv, asm := tr.mean("server.commit"), tr.mean("broadcast.assemble")+tr.mean("broadcast.prime_index")
	if srv+asm > 0 {
		tr.addBusy("live-write", "server", int64(commit*srv/(srv+asm)), p.live.tierCycles)
		tr.addBusy("live-write", "broadcast", int64(commit*asm/(srv+asm)), p.live.tierCycles)
	}
	frames := int64(p.live.samples)
	tr.addBusy("live-write", "wire", int64(encode+tr.mean("wire.decode")*float64(frames)), p.live.tierCycles+frames)
	tr.addBusy("live-write", "netcast", int64(onAir), p.live.tierCycles)

	// durable-catchup: each Get that produces runs the whole producer and
	// the log append; each spilled read is a durlog read plus a decode;
	// the durable replica's stage means split them. A restart is the
	// log open plus the producer's resume.
	d := func(name string) float64 { return tr.mean(name + durableTag) }
	gen, com, asmD, enc, app := d("workload.generate"), d("server.commit"), d("broadcast.assemble")+d("broadcast.prime_index"), d("wire.encode"), d("durlog.append")
	if total := gen + com + asmD + app; total > 0 {
		produced := tr.sum("cyclesource.produce")
		n := int64(p.durable.steps * p.durable.sz.cycles)
		for layer, part := range map[string]float64{"workload": gen, "server": com, "broadcast": asmD, "wire": enc, "durlog": app - enc} {
			tr.addBusy("durable-catchup", layer, int64(produced*part/total), n)
		}
	}
	if read, dec := d("durlog.read"), d("wire.decode"); read > 0 {
		spilled := tr.sum("cyclesource.spilled_get")
		tr.addBusy("durable-catchup", "wire", int64(spilled*dec/read), 1)
		tr.addBusy("durable-catchup", "durlog", int64(spilled*(read-dec)/read), 1)
	}
	tr.addBusy("durable-catchup", "cyclesource", int64(tr.sum("cyclesource.window_get")), 1)
	restarts := tr.sum("cyclesource.restart")
	open := d("durlog.open") * float64(p.durable.steps*durableRestarts)
	tr.addBusy("durable-catchup", "durlog", int64(open), 1)
	tr.addBusy("durable-catchup", "cyclesource", int64(restarts-open), 1)

	fmt.Fprintln(w, "traced busy time by layer (self time; composite calls split as documented):")
	for _, wl := range workloads {
		shares := tr.busyShares(wl)
		var hit float64
		var parts []string
		for _, s := range shares {
			if contains(stressed[wl], s.Layer) {
				hit += s.Share
			}
			parts = append(parts, fmt.Sprintf("%s %.1f%%", s.Layer, 100*s.Share))
		}
		fmt.Fprintf(w, "  %-16s stressed layers %s: %.1f%% | %s\n", wl, strings.Join(stressed[wl], "+"), 100*hit, strings.Join(parts, ", "))
	}
}

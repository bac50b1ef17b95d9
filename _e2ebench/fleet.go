package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/cyclesource"
	"bpush/internal/model"
	"bpush/internal/pool"
	"bpush/internal/sim"
	"bpush/internal/stats"
	"bpush/internal/workload"
)

// fleetMethod is one client group of the fleet: a scheme and the number
// of versions its server keeps on air.
type fleetMethod struct {
	label    string // the <m> of the per-layer metric names
	opts     core.Options
	versions int
}

// fleetMethods are the paper's methods at its default operating point,
// each with the 100-page client cache.
var fleetMethods = []fleetMethod{
	{label: "inv-only", opts: core.Options{Kind: core.KindInvOnly, CacheSize: 100}, versions: 1},
	{label: "vcache", opts: core.Options{Kind: core.KindVCache, CacheSize: 100}, versions: 1},
	{label: "multiversion", opts: core.Options{Kind: core.KindMVBroadcast, CacheSize: 100}, versions: 3},
	{label: "mv-cache", opts: core.Options{Kind: core.KindMVCache, CacheSize: 100}, versions: 1},
	{label: "sgt", opts: core.Options{Kind: core.KindSGT, CacheSize: 100}, versions: 1},
	{label: "inv-only-bucket", opts: core.Options{Kind: core.KindInvOnly, CacheSize: 100, BucketGranularity: 10}, versions: 1},
}

// fleetSize is one round of the fleet: clients per method, and the
// unmeasured warm-up and measured queries each client runs.
type fleetSize struct {
	clients, warmup, queries int
}

// fleetConfig is the simulator configuration of one method's group: the
// paper's defaults, so sim.RunFleet can replay the same fleet.
func fleetConfig(seed int64, m fleetMethod, sz fleetSize, workers int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Scheme = m.opts
	cfg.ServerVersions = m.versions
	cfg.Warmup = sz.warmup
	cfg.Queries = sz.queries
	cfg.Parallel = workers
	return cfg
}

// fleetClient is one closed-loop client of a round. Its construction
// mirrors the simulator's per-client set-up exactly (seeds included), so
// its outcomes must equal sim.RunFleet's client of the same index.
type fleetClient struct {
	method int
	qgen   *workload.QueryGen
	cl     *client.Client
	act    *actor       // nil when untraced
	probe  *allocScheme // nil unless counting allocations

	committed, aborted int
	latency            stats.Accumulator
	reads, cacheReads  int
	totalNS, measNS    int64
}

// fleetRound is one fresh fleet: a source per method and every client.
type fleetRound struct {
	srcs    []*cyclesource.Source
	clients []*fleetClient
}

func (r *fleetRound) close() {
	for _, s := range r.srcs {
		_ = s.Close()
	}
}

// newFleetRound builds the sources and clients of one round; each client
// tunes in to cycle 1 as part of set-up.
func newFleetRound(seed int64, sz fleetSize, workers int, tr *tracer) (*fleetRound, error) {
	r := &fleetRound{}
	for mi, m := range fleetMethods {
		cfg := fleetConfig(seed, m, sz, workers)
		src, err := cfg.NewSource()
		if err != nil {
			r.close()
			return nil, err
		}
		r.srcs = append(r.srcs, src)
		for i := 0; i < sz.clients; i++ {
			fc, err := newFleetClient(cfg, mi, i, src, tr, false)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("fleet %s client %d: %w", m.label, i, err)
			}
			r.clients = append(r.clients, fc)
		}
	}
	// Interleave the methods so both workers always have every kind of
	// client in flight.
	ordered := make([]*fleetClient, 0, len(r.clients))
	for i := 0; i < sz.clients; i++ {
		for mi := range fleetMethods {
			ordered = append(ordered, r.clients[mi*sz.clients+i])
		}
	}
	r.clients = ordered
	return r, nil
}

func newFleetClient(cfg sim.Config, mi, i int, src *cyclesource.Source, tr *tracer, probe bool) (*fleetClient, error) {
	clientSeed := cfg.Seed + 1000*int64(i+1)
	qgen, err := workload.NewQueryGen(workload.ClientConfig{
		ReadRange:   cfg.ReadRange,
		Theta:       cfg.Theta,
		OpsPerQuery: cfg.OpsPerQuery,
	}, rand.New(rand.NewSource(clientSeed)))
	if err != nil {
		return nil, err
	}
	scheme, err := core.New(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	var feed client.Feed = src.NewFeed()
	fc := &fleetClient{method: mi, qgen: qgen}
	if tr != nil {
		fc.act = tr.actor("fleet-read")
		m := fleetMethods[mi].label
		scheme = newTracedScheme(scheme, fc.act, m)
		feed = &tracedFeed{f: feed, a: fc.act}
	}
	if probe {
		fc.probe = &allocScheme{Scheme: scheme}
		scheme = fc.probe
	}
	fc.cl, err = client.New(scheme, feed, client.Config{ThinkTime: cfg.ThinkTime, Seed: clientSeed + 1})
	if err != nil {
		return nil, err
	}
	return fc, nil
}

// run executes the client's closed loop: each query starts when the last
// one committed or aborted.
func (fc *fleetClient) run(sz fleetSize) error {
	query := "client." + fleetMethods[fc.method].label + ".query"
	t0 := time.Now()
	var tm time.Time
	for q := 0; q < sz.warmup+sz.queries; q++ {
		if q == sz.warmup {
			tm = time.Now()
		}
		if fc.act != nil {
			fc.act.open(query)
		}
		res, err := fc.cl.RunQuery(fc.qgen.Query())
		if fc.act != nil {
			fc.act.close()
		}
		if err != nil {
			return fmt.Errorf("query %d: %w", q, err)
		}
		if q < sz.warmup {
			continue
		}
		if res.Committed {
			fc.committed++
			fc.latency.Add(float64(res.LatencyCycles))
		} else {
			fc.aborted++
		}
		fc.reads += res.Reads
		fc.cacheReads += res.CacheReads
	}
	end := time.Now()
	fc.totalNS = int64(end.Sub(t0))
	fc.measNS = int64(end.Sub(tm))
	if fc.act != nil {
		fc.act.flush()
	}
	return nil
}

// fleetSeeds is how many workload seeds the rounds cycle through. The
// abort rate of one seed depends on the few dozen server cycles a round
// spans; averaging several seeds keeps abort_rate from swinging with
// --seed while staying a pure function of it.
const fleetSeeds = 3

// fleetPhase is the fleet-read workload: rounds of a fresh fleet, round
// r over workload seed r mod fleetSeeds.
type fleetPhase struct {
	tally
	seeds   []int64
	sz      fleetSize
	workers int
	tr      *tracer
	want    [][]*sim.FleetMetrics // sim.RunFleet's result per seed and method

	queriesPerS []float64
	queries     int              // measured queries per round
	perSeed     [][]methodTotals // per seed, per method; nil until the seed ran
	producedMax uint64           // cycles produced by the busiest source
}

// methodTotals sums one method's measured outcomes over its clients.
type methodTotals struct {
	committed, aborted, reads, cacheReads int
}

// newFleetPhase runs the correctness pass — sim.RunFleet with the oracle
// checking every commit, once per seed — whose per-client results every
// round must reproduce.
func newFleetPhase(seed int64, sz fleetSize, workers int, tr *tracer) *fleetPhase {
	f := &fleetPhase{sz: sz, workers: workers, tr: tr, perSeed: make([][]methodTotals, fleetSeeds)}
	for k := 0; k < fleetSeeds; k++ {
		s := seed + 7919*int64(k)
		f.seeds = append(f.seeds, s)
		want := make([]*sim.FleetMetrics, len(fleetMethods))
		for mi, m := range fleetMethods {
			cfg := fleetConfig(s, m, sz, workers)
			cfg.Check = true
			fm, err := sim.RunFleet(cfg, sz.clients)
			if err != nil {
				f.fail(sz.clients*sz.queries, "fleet %s seed %d: oracle pass: %v", m.label, s, err)
				continue
			}
			for i, cm := range fm.PerClient {
				if cm.OracleSkipped != 0 {
					f.fail(cm.OracleSkipped, "fleet %s seed %d client %d: %d commits outside the oracle window", m.label, s, i, cm.OracleSkipped)
				}
			}
			want[mi] = fm
		}
		f.want = append(f.want, want)
	}
	return f
}

// totals sums the per-method outcomes over every seed that ran.
func (f *fleetPhase) totals() []methodTotals {
	out := make([]methodTotals, len(fleetMethods))
	for _, ts := range f.perSeed {
		for mi, t := range ts {
			o := &out[mi]
			o.committed += t.committed
			o.aborted += t.aborted
			o.reads += t.reads
			o.cacheReads += t.cacheReads
		}
	}
	return out
}

// abortRate is the fleet's aborted share of measured queries, over every
// seed that ran.
func (f *fleetPhase) abortRate() float64 {
	var aborted, all int
	for _, t := range f.totals() {
		aborted += t.aborted
		all += t.committed + t.aborted
	}
	return float64(aborted) / float64(all)
}

func (f *fleetPhase) done() {}

func (f *fleetPhase) warm() error {
	tr := f.tr
	f.tr = nil
	err := f.step()
	f.tr = tr
	f.clear()
	f.queriesPerS = nil
	f.perSeed = make([][]methodTotals, fleetSeeds)
	return err
}

// step runs one round: a fresh fleet whose clients all run their closed
// loops on the worker pool.
func (f *fleetPhase) step() error {
	sz := f.sz
	k := f.steps % fleetSeeds
	t0 := time.Now()
	r, err := newFleetRound(f.seeds[k], sz, f.workers, f.tr)
	if err != nil {
		return err
	}
	defer r.close()
	f.setupS = append(f.setupS, time.Since(t0).Seconds())

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w0 := time.Now()
	err = pool.For(f.workers, len(r.clients), func(i int) error { return r.clients[i].run(sz) })
	wall := time.Since(w0)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}

	var queries int
	var measNS, totalNS int64
	totals := make([]methodTotals, len(fleetMethods))
	for idx, fc := range r.clients {
		i := idx / len(fleetMethods)
		queries += fc.committed + fc.aborted
		measNS += fc.measNS
		totalNS += fc.totalNS
		t := &totals[fc.method]
		t.committed += fc.committed
		t.aborted += fc.aborted
		t.reads += fc.reads
		t.cacheReads += fc.cacheReads
		f.attempted += fc.committed + fc.aborted
		// The benchmark's fleet must run the simulator's path: same
		// counts and the same mean latency, bit for bit, as
		// sim.RunFleet's client i.
		wm := f.want[k][fc.method]
		if wm == nil {
			continue
		}
		cm := wm.PerClient[i]
		if cm.Committed != fc.committed || cm.Aborted != fc.aborted || cm.MeanLatency != fc.latency.Mean() {
			f.fail(fc.committed+fc.aborted, "fleet %s client %d: benchmark %d/%d lat %v, sim.RunFleet %d/%d lat %v",
				fleetMethods[fc.method].label, i, fc.committed, fc.aborted, fc.latency.Mean(), cm.Committed, cm.Aborted, cm.MeanLatency)
		}
	}
	ran := len(r.clients) * (sz.warmup + sz.queries)
	// Wall time attributable to measured queries: the round's wall time
	// scaled by the share of client time spent past warm-up.
	measWall := wall.Seconds() * float64(measNS) / float64(totalNS)
	f.queriesPerS = append(f.queriesPerS, float64(queries)/measWall)
	f.allocsPerOp = append(f.allocsPerOp, float64(ms1.Mallocs-ms0.Mallocs)/float64(ran))
	f.queries = queries
	f.perSeed[k] = totals
	for _, s := range r.srcs {
		if p := s.Produced(); p > f.producedMax {
			f.producedMax = p
		}
	}
	f.heap()
	return nil
}

// fleetAllocProbe measures each scheme's allocations per NewCycle with
// nothing else running: a few clients per method, one after another,
// with the allocation counter bracketing every NewCycle call.
func fleetAllocProbe(seed int64, sz fleetSize) (map[string]float64, error) {
	out := map[string]float64{}
	const probeClients = 4
	for mi, m := range fleetMethods {
		cfg := fleetConfig(seed, m, sz, 1)
		src, err := cfg.NewSource()
		if err != nil {
			return nil, err
		}
		var n, total uint64
		for i := 0; i < probeClients; i++ {
			fc, err := newFleetClient(cfg, mi, i, src, nil, true)
			if err != nil {
				_ = src.Close()
				return nil, err
			}
			if err := fc.run(sz); err != nil {
				_ = src.Close()
				return nil, err
			}
			n += fc.probe.cycles
			total += fc.probe.allocs
		}
		_ = src.Close()
		out[m.label] = float64(total) / float64(n)
	}
	return out, nil
}

// allocScheme counts the heap objects each NewCycle allocates.
type allocScheme struct {
	core.Scheme
	cycles, allocs uint64
}

func (s *allocScheme) NewCycle(b *broadcast.Bcast) error {
	a0 := allocs()
	err := s.Scheme.NewCycle(b)
	s.allocs += allocs() - a0
	s.cycles++
	return err
}

// tracedScheme times every call into the scheme (the core layer) and
// charges it to the open query span.
type tracedScheme struct {
	core.Scheme
	a                                    *actor
	newCycle, serve, commit, begin, misc string
}

func newTracedScheme(s core.Scheme, a *actor, m string) *tracedScheme {
	p := "core." + m + "."
	return &tracedScheme{Scheme: s, a: a, newCycle: p + "new_cycle", serve: p + "serve", commit: p + "commit", begin: p + "begin", misc: p + "abort"}
}

func (s *tracedScheme) NewCycle(b *broadcast.Bcast) error {
	t := s.a.tr.now()
	err := s.Scheme.NewCycle(b)
	s.a.leaf(s.newCycle, t, s.a.tr.now())
	return err
}

func (s *tracedScheme) MissCycle(c model.Cycle) error {
	t := s.a.tr.now()
	err := s.Scheme.MissCycle(c)
	s.a.leaf(s.misc, t, s.a.tr.now())
	return err
}

func (s *tracedScheme) Begin() error {
	t := s.a.tr.now()
	err := s.Scheme.Begin()
	s.a.leaf(s.begin, t, s.a.tr.now())
	return err
}

func (s *tracedScheme) ServeLocal(item model.ItemID) (core.Read, bool, error) {
	t := s.a.tr.now()
	r, ok, err := s.Scheme.ServeLocal(item)
	s.a.leaf(s.serve, t, s.a.tr.now())
	return r, ok, err
}

func (s *tracedScheme) ServeChannel(item model.ItemID, pos int) (core.Read, int, error) {
	t := s.a.tr.now()
	r, slot, err := s.Scheme.ServeChannel(item, pos)
	s.a.leaf(s.serve, t, s.a.tr.now())
	return r, slot, err
}

func (s *tracedScheme) Commit() (core.CommitInfo, error) {
	t := s.a.tr.now()
	info, err := s.Scheme.Commit()
	s.a.leaf(s.commit, t, s.a.tr.now())
	return info, err
}

func (s *tracedScheme) Abort() {
	t := s.a.tr.now()
	s.Scheme.Abort()
	s.a.leaf(s.misc, t, s.a.tr.now())
}

// tracedFeed times the client's wait for the next cycle from the shared
// producer (the cyclesource layer, production included).
type tracedFeed struct {
	f client.Feed
	a *actor
}

func (f *tracedFeed) Next() (*broadcast.Bcast, error) {
	t := f.a.tr.now()
	b, err := f.f.Next()
	f.a.leaf("cyclesource.feed_wait", t, f.a.tr.now())
	return b, err
}

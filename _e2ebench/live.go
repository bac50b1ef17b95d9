package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/core"
	"bpush/internal/netcast"
	"bpush/internal/workload"
)

// liveLag is how many cycles the tick loop may run ahead of the slowest
// tuner. It is well under netcast.DefaultQueueLen, so a healthy run never
// evicts a tuner.
const liveLag = 4

// liveSchemes are the two live clients: SGT with a cache (the SG-delta
// path) and cacheless multiversion broadcast (the overflow path).
var liveSchemes = []struct {
	label string
	opts  core.Options
}{
	{label: "live-sgt", opts: core.Options{Kind: core.KindSGT, CacheSize: 100}},
	{label: "live-multiversion", opts: core.Options{Kind: core.KindMVBroadcast}},
}

// livePoint is the write-heavy producer point of the live station: the
// top of Figure 6's write sweep, three versions on air.
func livePoint(seed int64, workers int) producerPoint {
	return producerPoint{db: 1000, versions: 3, workers: workers, wl: paperWorkload(500, 100), seed: seed}
}

// outcome is one finished live query.
type outcome struct {
	committed bool
	reason    string
}

// liveTuner is one in-process tuner feeding one scheme client. Its feed
// wrapper checks the cycle order and stamps each delivery.
type liveTuner struct {
	sess   *liveSession
	idx    int
	seed   int64 // client seed: queries draw from it, the client from seed+1
	tuner  *netcast.Tuner
	qgen   *workload.QueryGen
	act    *actor
	query  string
	expect uint64 // next cycle number this tuner must hear

	consumed atomic.Uint64 // last cycle handed to the client
	delivery []int64       // ns from tick start to Next returning, per cycle
	outOrder int
	outcomes []outcome
}

func (lt *liveTuner) Next() (*broadcast.Bcast, error) {
	var t int64
	if lt.act != nil {
		t = lt.act.tr.now()
	}
	b, err := lt.tuner.Next()
	if err != nil {
		return nil, err
	}
	now := time.Since(lt.sess.t0)
	if lt.act != nil {
		// Tuner.Next mostly blocks for the next tick: its time is not
		// the client's, and its decoding is charged to wire separately.
		lt.act.wait("netcast.tuner_next", lt.act.tr.now()-t)
	}
	c := uint64(b.Cycle)
	if c != lt.expect {
		lt.outOrder++
	}
	lt.expect = c + 1
	if c >= 2 && c < uint64(len(lt.sess.starts)) {
		lt.delivery = append(lt.delivery, int64(now)-lt.sess.starts[c].Load())
	}
	lt.consumed.Store(c)
	select {
	case lt.sess.progress <- struct{}{}:
	default:
	}
	return b, nil
}

// liveSession is one station run: set up, aired for a fixed number of
// cycles in a closed loop, then torn down.
type liveSession struct {
	st       *netcast.Station
	tuners   []*liveTuner
	t0       time.Time
	starts   []atomic.Int64 // tick start per cycle, ns since t0
	progress chan struct{}  // a tuner consumed a cycle (cap 1: a wake-up flag)
	wg       sync.WaitGroup
}

// newLiveSession starts the station, attaches the tuners, starts the
// clients, and airs the first (full-load) frame, which every client
// tunes in to. All of that is set-up.
func newLiveSession(seed int64, workers, cycles int, tr *tracer) (*liveSession, error) {
	p := livePoint(seed, workers)
	st, err := netcast.NewStation(netcast.StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   p.db,
		Versions: p.versions,
		Workload: p.wl,
		Seed:     p.seed,
		Workers:  p.workers,
		Cast:     netcast.Config{Shards: workers},
		Sample:   tr != nil,
	})
	if err != nil {
		return nil, err
	}
	s := &liveSession{st: st, t0: time.Now(), starts: make([]atomic.Int64, cycles+2), progress: make(chan struct{}, 1)}
	for k, ls := range liveSchemes {
		conn, err := st.Cast().SubscribeLocal()
		if err != nil {
			s.close()
			return nil, err
		}
		clientSeed := seed + 1000*int64(k+1)
		qgen, err := liveQueryGen(clientSeed)
		if err != nil {
			s.close()
			return nil, err
		}
		lt := &liveTuner{sess: s, idx: k, seed: clientSeed, tuner: netcast.Tune(conn), qgen: qgen, expect: 1, query: "client." + ls.label + ".query"}
		if tr != nil {
			lt.act = tr.actor("live-write")
		}
		s.tuners = append(s.tuners, lt)
	}
	ready := make(chan error, len(s.tuners))
	for _, lt := range s.tuners {
		s.wg.Add(1)
		go func(lt *liveTuner) {
			defer s.wg.Done()
			lt.drive(ready)
		}(lt)
	}
	if err := st.Tick(); err != nil {
		s.close()
		return nil, err
	}
	for range s.tuners {
		if err := <-ready; err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// drive tunes the client in and runs closed-loop queries until the
// station closes under it.
func (lt *liveTuner) drive(ready chan<- error) {
	scheme, err := core.New(liveSchemes[lt.idx].opts)
	if err != nil {
		ready <- err
		return
	}
	if lt.act != nil {
		scheme = newTracedScheme(scheme, lt.act, liveSchemes[lt.idx].label)
	}
	cl, err := client.New(scheme, lt, client.Config{ThinkTime: 2, Seed: lt.seed + 1})
	ready <- err
	if err != nil {
		return
	}
	for {
		if lt.act != nil {
			lt.act.open(lt.query)
		}
		res, err := cl.RunQuery(lt.qgen.Query())
		if lt.act != nil {
			lt.act.close()
		}
		if err != nil {
			// The station closed mid-query: the session is over and the
			// unfinished query does not count.
			return
		}
		lt.outcomes = append(lt.outcomes, outcome{committed: res.Committed, reason: res.AbortReason})
	}
}

func (s *liveSession) close() {
	_ = s.st.Close()
	for _, lt := range s.tuners {
		_ = lt.tuner.Close()
	}
	s.wg.Wait()
	for _, lt := range s.tuners {
		if lt.act != nil {
			lt.act.flush()
		}
	}
}

// minConsumed is the last cycle every tuner has handed to its client.
func (s *liveSession) minConsumed() uint64 {
	m := s.tuners[0].consumed.Load()
	for _, lt := range s.tuners[1:] {
		if c := lt.consumed.Load(); c < m {
			m = c
		}
	}
	return m
}

// air ticks cycles 2..last in a closed loop: a tick waits until every
// tuner is within liveLag cycles. It returns once every tuner has heard
// the last cycle.
func (s *liveSession) air(last uint64, a *actor) (time.Duration, int64, error) {
	start := time.Now()
	var depthMax int64
	for c := uint64(2); c <= last; c++ {
		w := time.Now()
		if c > liveLag {
			if err := s.waitConsumed(c - liveLag); err != nil {
				return 0, 0, err
			}
		}
		if a != nil {
			a.sample("netcast.tick_wait", int64(time.Since(w)))
			if d := s.st.Cast().QueueDepth(); d > depthMax {
				depthMax = d
			}
		}
		t := time.Since(s.t0)
		s.starts[c].Store(int64(t))
		if err := s.st.Tick(); err != nil {
			return 0, 0, err
		}
		if a != nil {
			// The station's own sampled spans split the tick into its
			// tiers; the whole tick is a sample.
			a.sample("netcast.tick", int64(time.Since(s.t0)-t))
		}
	}
	if err := s.waitConsumed(last); err != nil {
		return 0, 0, err
	}
	return time.Since(start), depthMax, nil
}

// liveStall bounds how long the tick loop waits for a tuner; a healthy
// tuner consumes a cycle in milliseconds.
const liveStall = 20 * time.Second

// waitConsumed blocks until every tuner has handed cycle c (or later) to
// its client.
func (s *liveSession) waitConsumed(c uint64) error {
	if s.minConsumed() >= c {
		return nil
	}
	timer := time.NewTimer(liveStall)
	defer timer.Stop()
	for s.minConsumed() < c {
		select {
		case <-s.progress:
		case <-timer.C:
			return fmt.Errorf("live: a tuner stalled below cycle %d", c)
		}
	}
	return nil
}

// livePhase is the live-write workload: fixed-length station sessions.
type livePhase struct {
	tally
	seed    int64
	workers int
	cycles  int
	tr      *tracer
	tick    *actor // the tick loop's actor (traced only)

	cyclesPerS []float64 // per session
	p50s, p99s []float64 // per session: delivery quantiles, µs
	samples    int       // delivery samples over all sessions
	aborted    int
	queries    int
	frameBytes float64
	depthMax   int64
	evictions  int64
	drops      int64
	tierNS     map[string]int64 // the station's sampled tier totals (traced)
	tierCycles int64
}

func newLivePhase(seed int64, workers, cycles int, tr *tracer) *livePhase {
	l := &livePhase{seed: seed, workers: workers, cycles: cycles, tr: tr, tierNS: map[string]int64{}}
	if tr != nil {
		l.tick = tr.actor("live-write")
	}
	return l
}

func (l *livePhase) done() {
	if l.tick != nil {
		l.tick.flush()
	}
}

func (l *livePhase) warm() error {
	tr, tick := l.tr, l.tick
	l.tr, l.tick = nil, nil
	err := l.step()
	l.tr, l.tick = tr, tick
	l.clear()
	l.cyclesPerS, l.p50s, l.p99s, l.samples, l.aborted, l.queries = nil, nil, nil, 0, 0, 0
	return err
}

// step airs one session and checks it.
func (l *livePhase) step() error {
	t0 := time.Now()
	s, err := newLiveSession(l.seed, l.workers, l.cycles, l.tr)
	if err != nil {
		return err
	}
	l.setupS = append(l.setupS, time.Since(t0).Seconds())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	last := uint64(l.cycles + 1)
	d, depth, err := s.air(last, l.tick)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		s.close()
		return err
	}
	l.cyclesPerS = append(l.cyclesPerS, float64(l.cycles)/d.Seconds())
	l.allocsPerOp = append(l.allocsPerOp, float64(ms1.Mallocs-ms0.Mallocs)/float64(l.cycles))
	if depth > l.depthMax {
		l.depthMax = depth
	}
	l.heap()
	traffic := s.st.Cast().Traffic()
	l.frameBytes = float64(traffic.BytesSent) / float64(traffic.FramesSent)
	if l.tr != nil {
		snap := s.st.Registry().Snapshot()
		for _, tier := range []string{"commit", "encode", "on_air"} {
			l.tierNS[tier] += int64(snap.Histograms["span."+tier+"_ns"].Sum)
		}
		l.tierCycles += int64(last)
	}
	s.close()
	l.evictions += traffic.Evictions
	l.drops += traffic.Drops
	if traffic.Evictions != 0 || traffic.Drops != 0 {
		l.fail(int(traffic.Evictions+traffic.Drops), "live: %d evictions, %d drops", traffic.Evictions, traffic.Drops)
	}
	l.check(s, last)
	return nil
}

// check is the live correctness gate: every tuner heard every aired
// cycle in order with no corrupt frame, and each client's commit/abort
// sequence equals the same scheme and seed run over an in-memory
// cyclesource feed of the same stream.
func (l *livePhase) check(s *liveSession, last uint64) {
	var delivery []int64
	for k, lt := range s.tuners {
		l.attempted += int(last) + len(lt.outcomes)
		if lt.outOrder != 0 || lt.consumed.Load() != last || lt.tuner.CorruptFrames() != 0 {
			l.fail(int(last), "live tuner %d: %d out of order, heard up to %d of %d, %d corrupt",
				k, lt.outOrder, lt.consumed.Load(), last, lt.tuner.CorruptFrames())
		}
		delivery = append(delivery, lt.delivery...)
		for _, o := range lt.outcomes {
			l.queries++
			if !o.committed {
				l.aborted++
			}
		}
		ref, err := referenceOutcomes(s, k, len(lt.outcomes))
		if err != nil {
			l.fail(len(lt.outcomes), "live client %d reference: %v", k, err)
			continue
		}
		for q, o := range lt.outcomes {
			if ref[q] != o {
				l.fail(1, "live client %d query %d: live %+v, in-memory feed %+v", k, q, o, ref[q])
			}
		}
	}
	// Each session's quantiles; the reported figure is their median, so
	// a stall that hits a few sessions does not decide the run's tail.
	l.p50s = append(l.p50s, quantile(delivery, 0.50)/1e3)
	l.p99s = append(l.p99s, quantile(delivery, 0.99)/1e3)
	l.samples += len(delivery)
}

// referenceOutcomes replays live client k over an in-memory feed of the
// station's own cycle stream.
func referenceOutcomes(s *liveSession, k, n int) ([]outcome, error) {
	lt := s.tuners[k]
	scheme, err := core.New(liveSchemes[k].opts)
	if err != nil {
		return nil, err
	}
	qgen, err := liveQueryGen(lt.seed)
	if err != nil {
		return nil, err
	}
	cl, err := client.New(scheme, s.st.Source().NewFeed(), client.Config{ThinkTime: 2, Seed: lt.seed + 1})
	if err != nil {
		return nil, err
	}
	out := make([]outcome, n)
	for q := range out {
		res, err := cl.RunQuery(qgen.Query())
		if err != nil {
			return nil, err
		}
		out[q] = outcome{committed: res.Committed, reason: res.AbortReason}
	}
	return out, nil
}

// liveQueryGen is a live client's query stream: the paper's client
// workload seeded per client.
func liveQueryGen(seed int64) (*workload.QueryGen, error) {
	return workload.NewQueryGen(workload.ClientConfig{ReadRange: 1000, Theta: 0.95, OpsPerQuery: 10}, rand.New(rand.NewSource(seed)))
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Parent links a read to its
// query and a producer stage to its cycle; the root spans have Parent 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Phase  string `json:"phase"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the span log written at the end of a traced run.
// Every span is still folded into the duration samples and busy-time
// totals; only the raw log is capped so the file stays a few megabytes.
const maxKeptSpans = 50000

// tracer collects the traced run's spans. Each single-threaded load generator
// (a fleet client, a live tuner, a producer pass) records into its own
// actor without locking; actors merge into the tracer when they finish.
type tracer struct {
	t0 time.Time

	kept atomic.Int64 // spans reserved for the span log, across actors

	mu      sync.Mutex
	nextID  int64
	spans   []span
	samples map[string][]int64          // span name -> durations (ns)
	busy    map[string]map[string]int64 // phase -> layer -> self time (ns)
	calls   map[string]map[string]int64 // phase -> layer -> calls
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		samples: map[string][]int64{},
		busy:    map[string]map[string]int64{},
		calls:   map[string]map[string]int64{},
	}
}

// now returns monotonic nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// ids reserves n span identifiers.
func (t *tracer) ids(n int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.nextID + 1
	t.nextID += n
	return first
}

// actor records the spans of one single-threaded load generator in one phase.
type actor struct {
	tr      *tracer
	phase   string
	idNext  int64
	idEnd   int64
	spans   []span
	samples map[string][]int64
	busy    map[string]int64
	calls   map[string]int64

	// The open parent span (a query or a producer cycle): children
	// recorded while it is open link to it, and their time is subtracted
	// from its self time.
	parent      int64
	parentName  string
	parentStart int64
	childNS     int64
}

func (t *tracer) actor(phase string) *actor {
	return &actor{
		tr:      t,
		phase:   phase,
		samples: map[string][]int64{},
		busy:    map[string]int64{},
		calls:   map[string]int64{},
	}
}

func (a *actor) id() int64 {
	if a.idNext == a.idEnd {
		a.idNext = a.tr.ids(1024)
		a.idEnd = a.idNext + 1024
	}
	id := a.idNext
	a.idNext++
	return id
}

// layerOf is the module a span name belongs to: its first component.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// leaf records a span with no traced children, under the open parent.
func (a *actor) leaf(name string, start, end int64) {
	d := end - start
	a.samples[name] = append(a.samples[name], d)
	layer := layerOf(name)
	a.busy[layer] += d
	a.calls[layer]++
	if a.parent != 0 {
		a.childNS += d
	}
	a.keep(span{ID: a.id(), Parent: a.parent, Phase: a.phase, Name: name, Start: start, End: end})
}

// open starts a parent span; close ends it and charges its self time.
func (a *actor) open(name string) {
	a.parent = a.id()
	a.parentName = name
	a.parentStart = a.tr.now()
	a.childNS = 0
}

func (a *actor) close() {
	end := a.tr.now()
	d := end - a.parentStart
	a.samples[a.parentName] = append(a.samples[a.parentName], d)
	layer := layerOf(a.parentName)
	a.busy[layer] += d - a.childNS
	a.calls[layer]++
	a.keep(span{ID: a.parent, Phase: a.phase, Name: a.parentName, Start: a.parentStart, End: end})
	a.parent = 0
}

// keep buffers a span for the span log while the log has room.
func (a *actor) keep(s span) {
	if a.tr.kept.Load() < maxKeptSpans && a.tr.kept.Add(1) <= maxKeptSpans {
		a.spans = append(a.spans, s)
	}
}

// sample records a value under a name without making it a span (counts
// and byte sizes a layer reports).
func (a *actor) sample(name string, v int64) {
	a.samples[name] = append(a.samples[name], v)
}

// wait records time the open parent spent blocked in an untraced call:
// it is not the parent's self time, nor any layer's busy time.
func (a *actor) wait(name string, d int64) {
	a.samples[name] = append(a.samples[name], d)
	if a.parent != 0 {
		a.childNS += d
	}
}

// flush merges the actor into its tracer.
func (a *actor) flush() {
	t := a.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range a.samples {
		t.samples[k] = append(t.samples[k], v...)
	}
	if t.busy[a.phase] == nil {
		t.busy[a.phase] = map[string]int64{}
		t.calls[a.phase] = map[string]int64{}
	}
	for k, v := range a.busy {
		t.busy[a.phase][k] += v
	}
	for k, v := range a.calls {
		t.calls[a.phase][k] += v
	}
	t.spans = append(t.spans, a.spans...)
}

// addBusy charges busy time measured outside an actor (the station's own
// tier spans) to a layer of a phase.
func (t *tracer) addBusy(phase, layer string, ns, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.busy[phase] == nil {
		t.busy[phase] = map[string]int64{}
		t.calls[phase] = map[string]int64{}
	}
	t.busy[phase][layer] += ns
	t.calls[phase][layer] += calls
}

// quantile returns the q-quantile (nearest rank) of the named samples,
// and the sample count.
func (t *tracer) quantile(name string, q float64) (float64, int) {
	t.mu.Lock()
	s := t.samples[name]
	t.mu.Unlock()
	return quantile(s, q), len(s)
}

// mean returns the mean of the named samples.
func (t *tracer) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.samples[name]
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

// sum returns the total of the named samples.
func (t *tracer) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, v := range t.samples[name] {
		sum += v
	}
	return float64(sum)
}

// layerCalls reports the calls recorded for a layer in a phase.
func (t *tracer) layerCalls(phase, layer string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[phase][layer]
}

// busyShares returns each layer's share of a phase's traced busy time,
// largest first.
func (t *tracer) busyShares(phase string) []layerShare {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, v := range t.busy[phase] {
		total += v
	}
	var out []layerShare
	for k, v := range t.busy[phase] {
		if total > 0 {
			out = append(out, layerShare{Layer: k, NS: v, Share: float64(v) / float64(total)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NS != out[j].NS {
			return out[i].NS > out[j].NS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

type layerShare struct {
	Layer string
	NS    int64
	Share float64
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples). It
// sorts a copy.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

// medianF is the median of a float series (0 for none).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// allocs reads the process-wide count of heap objects allocated so far,
// tiny allocations included — the figure runtime.MemStats.Mallocs
// reports — without stopping the world, so it is cheap enough to bracket
// a single call. The runtime accounts small objects a span at a time, so
// a bracket around one call is exact only on average; every caller
// averages over many calls. Serial callers only: the sample buffer is
// shared.
var allocSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

func allocs() uint64 {
	metrics.Read(allocSample)
	var n uint64
	for _, s := range allocSample {
		if s.Value.Kind() != metrics.KindUint64 {
			panic(fmt.Sprintf("runtime metric %s unsupported", s.Name))
		}
		n += s.Value.Uint64()
	}
	return n
}

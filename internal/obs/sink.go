package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"bpush/internal/stats"
)

// Ring is a bounded in-memory event sink: the last N events, oldest
// first. It is safe for concurrent use — the network station records into
// it from its tick loop while /tracez snapshots it.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

// NewRing creates a ring holding the most recent n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Record implements Recorder.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped returns how many events were overwritten before being read.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// JSONL streams events to a writer, one canonical JSON object per line.
// Encoding a float-free Event is deterministic, so two runs with the same
// seed produce byte-identical streams. Write errors are sticky: the first
// one is kept (Err) and later events are discarded, so a recorder deep in
// the hot path never has to propagate I/O failures upward.
type JSONL struct {
	w   io.Writer
	err error
}

// NewJSONL creates a JSONL sink over w. Wrap w in a bufio.Writer (and
// flush it) when writing to a file.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w}
}

// Record implements Recorder.
func (j *JSONL) Record(e Event) {
	if j.err != nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		j.err = err
	}
}

// Err returns the first write or encoding error, if any.
func (j *JSONL) Err() error { return j.err }

// maxTraceLine bounds a single JSONL line on decode.
const maxTraceLine = 1 << 20

// ReadJSONL decodes a JSONL event stream, as written by the JSONL sink.
// Blank lines are skipped; a malformed line is an error naming its number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if e.Type == "" {
			return nil, fmt.Errorf("obs: trace line %d: missing event type", lineNo)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return out, nil
}

// Summary is what an Aggregator folds a client event stream down to: the
// paper's per-client metrics (§5), computed from the trace alone. It is
// the only place they are computed — sim.Metrics embeds the Summary of
// the run's own aggregator, and a live client folds its events through
// the same code — so the numbers in the paper's tables are, by
// construction, the ones recoverable from the event stream.
type Summary struct {
	Method string // scheme name (the run-begin event's method)

	Queries   int
	Committed int
	Aborted   int

	AbortRate  float64
	AcceptRate float64

	// MeanLatency and MeanSpan are in broadcast cycles, over committed
	// queries only (matching the paper's latency metric).
	// MeanLatencySlots is the same latency in broadcast slots, the
	// right unit when comparing organizations with different cycle
	// lengths (broadcast disks, multiversion overflow).
	MeanLatency      float64
	MeanLatencySlots float64
	MeanSpan         float64
	// MeanStaleness is the mean distance, in cycles, between a committed
	// query's commit cycle and the database state it serialized against
	// — the currency metric of §5.2.2 (0 = the most current view).
	// SGT commits have no named state and are excluded.
	MeanStaleness float64
	// MeanReadAge is the mean version age, in cycles, over every read of
	// every committed query: commit cycle minus the version cycle the
	// read observed. Unlike MeanStaleness it is defined for all schemes
	// (SGT included) and weights each read, not each query — the per-read
	// currency the staleness trace events histogram.
	MeanReadAge float64

	Reads        int
	CacheReads   int
	AirReads     int
	VersionReads int

	CacheHitRate     float64 // fraction of reads served from cache
	OverflowReadRate float64 // fraction of reads served from overflow

	InvalidationHits int
	Restarts         int
	CyclesHeard      int
	CyclesMissed     int
}

// Aggregator folds a client-side event stream into a Summary. It is a
// single-stream sink, like the client that feeds it.
type Aggregator struct {
	s               Summary
	latency, slots  stats.Accumulator
	span, staleness stats.Accumulator
	readAge         stats.Accumulator
}

// NewAggregator creates an empty aggregating sink.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Reset clears everything folded so far except Method, so a caller can
// exclude a warm-up phase: events recorded after Reset are all the
// Summary counts.
func (a *Aggregator) Reset() {
	*a = Aggregator{s: Summary{Method: a.s.Method}}
}

// Record implements Recorder.
func (a *Aggregator) Record(e Event) {
	switch e.Type {
	case TypeRunBegin:
		a.s.Method = e.Method
	case TypeCommit:
		a.s.Queries++
		a.s.Committed++
		a.latency.Add(float64(e.Cycles))
		a.slots.Add(float64(e.Slots))
		a.span.Add(float64(e.Span))
		if e.Ser != 0 {
			a.staleness.Add(float64(e.T.Cycle - e.Ser))
		}
	case TypeAbort:
		a.s.Queries++
		a.s.Aborted++
	case TypeRead:
		a.s.Reads++
		switch e.Source {
		case SourceCache:
			a.s.CacheReads++
		case SourceVersion:
			a.s.VersionReads++
		default:
			a.s.AirReads++
		}
	case TypeStaleness:
		a.readAge.Add(float64(e.Cycles))
	case TypeInvHit:
		a.s.InvalidationHits++
	case TypeRestart:
		a.s.Restarts++
	case TypeCycleBegin:
		a.s.CyclesHeard++
	case TypeCycleMissed:
		a.s.CyclesMissed++
	}
}

// Summary returns the aggregate view of everything recorded so far.
func (a *Aggregator) Summary() Summary {
	s := a.s
	if s.Queries > 0 {
		s.AbortRate = float64(s.Aborted) / float64(s.Queries)
		s.AcceptRate = float64(s.Committed) / float64(s.Queries)
	}
	s.MeanLatency = a.latency.Mean()
	s.MeanLatencySlots = a.slots.Mean()
	s.MeanSpan = a.span.Mean()
	s.MeanStaleness = a.staleness.Mean()
	s.MeanReadAge = a.readAge.Mean()
	if s.Reads > 0 {
		s.CacheHitRate = float64(s.CacheReads) / float64(s.Reads)
		s.OverflowReadRate = float64(s.VersionReads) / float64(s.Reads)
	}
	return s
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bpush/internal/obs"
	"bpush/internal/stats"
)

// runTrace implements the "trace" subcommand: it reads a JSONL event
// stream (as written by the obs.JSONL sink) and renders the per-method
// summaries, the abort breakdown and timeline, and the span/latency
// histograms. Everything is recomputed from the events alone through
// obs.Aggregator, the same fold that computes sim.Metrics, so a trace's
// summary equals the run's Metrics over the same queries.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpush-inspect trace", flag.ContinueOnError)
	var (
		buckets = fs.Int("timeline", 10, "number of buckets in the abort timeline")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bpush-inspect trace [-timeline N] <trace.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: expected exactly one trace file, got %d args", fs.NArg())
	}
	if *buckets < 1 {
		return fmt.Errorf("trace: -timeline must be >= 1, got %d", *buckets)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("trace: %s holds no events", fs.Arg(0))
	}
	return renderTrace(out, events, *buckets)
}

// methodTrace accumulates everything the report needs for one method. A
// concatenated fleet trace carries one run-begin per client; streams of
// the same method fold together.
type methodTrace struct {
	agg     *obs.Aggregator
	span    *stats.Histogram
	latency *stats.Histogram
	runs    int
}

func newMethodTrace() *methodTrace {
	spanH, err := stats.NewHistogram(stats.LinearBuckets(1, 1, 8))
	if err != nil {
		panic(err) // static bucket layout
	}
	latH, err := stats.NewHistogram(stats.LinearBuckets(1, 1, 16))
	if err != nil {
		panic(err)
	}
	return &methodTrace{agg: obs.NewAggregator(), span: spanH, latency: latH}
}

// abortKey normalizes an abort reason for grouping: runs of digits become
// '#', so "item#17 invalidated at cycle42" and "item#3 invalidated at
// cycle7" count as one kind of abort.
func abortKey(reason string) string {
	var b strings.Builder
	inDigits := false
	for _, r := range reason {
		if r >= '0' && r <= '9' {
			if !inDigits {
				b.WriteByte('#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		b.WriteRune(r)
	}
	return b.String()
}

func renderTrace(out io.Writer, events []obs.Event, timelineBuckets int) error {
	methods := map[string]*methodTrace{}
	var order []string
	var cur *methodTrace
	aborts := map[string]int{}
	var abortCycles []uint64
	var minCycle, maxCycle uint64
	sawProducer := false
	// Producer commit-pipeline attribution: per phase, how many cycles
	// reported it and how many units (transactions planned, items
	// placed, edges executed) it processed.
	type phaseStat struct {
		cycles int
		units  int64
	}
	phases := map[string]*phaseStat{}

	for _, e := range events {
		switch e.Type {
		case obs.TypeRunBegin:
			m, ok := methods[e.Method]
			if !ok {
				m = newMethodTrace()
				methods[e.Method] = m
				order = append(order, e.Method)
			}
			m.runs++
			cur = m
		case obs.TypeCycleEnd:
			// Producer-side stream (cycle production); clients never emit it.
			sawProducer = true
		case obs.TypeProducerPhase:
			p, ok := phases[e.Reason]
			if !ok {
				p = &phaseStat{}
				phases[e.Reason] = p
			}
			p.cycles++
			p.units += e.N
		}
		if cur != nil {
			cur.agg.Record(e)
			switch e.Type {
			case obs.TypeCommit:
				cur.span.Add(float64(e.Span))
				cur.latency.Add(float64(e.Cycles))
			case obs.TypeAbort:
				aborts[abortKey(e.Reason)]++
				abortCycles = append(abortCycles, e.T.Cycle)
			}
		}
		if e.T.Cycle > 0 {
			if minCycle == 0 || e.T.Cycle < minCycle {
				minCycle = e.T.Cycle
			}
			if e.T.Cycle > maxCycle {
				maxCycle = e.T.Cycle
			}
		}
	}
	// renderPhases prints the producer pipeline attribution table when
	// the stream carries producer-phase events.
	renderPhases := func() {
		if len(phases) == 0 {
			return
		}
		fmt.Fprintln(out, "\nproducer pipeline (commit phases):")
		names := phaseOrder(phases)
		pt := stats.NewTable("phase", "cycles", "units", "units/cycle", "unit meaning")
		meaning := map[string]string{
			obs.PhasePlan:    "transactions planned",
			obs.PhasePlace:   "items placed",
			obs.PhaseExecute: "conflict edges emitted",
		}
		for _, name := range names {
			p := phases[name]
			per := 0.0
			if p.cycles > 0 {
				per = float64(p.units) / float64(p.cycles)
			}
			pt.AddRow(name, p.cycles, p.units, fmt.Sprintf("%.1f", per), meaning[name])
		}
		fmt.Fprint(out, pt.String())
	}

	if len(order) == 0 {
		if len(phases) > 0 {
			// A producer-only stream: no client summaries, but the
			// pipeline attribution is still meaningful.
			fmt.Fprintf(out, "trace: %d events, cycles %d..%d, producer stream\n", len(events), minCycle, maxCycle)
			renderPhases()
			return nil
		}
		return fmt.Errorf("trace: no run-begin event — not a client trace (producer-only stream: %v)", sawProducer)
	}

	fmt.Fprintf(out, "trace: %d events, cycles %d..%d, %d method(s)\n\n", len(events), minCycle, maxCycle, len(methods))

	// Per-method summary, recomputed purely from the event stream.
	t := stats.NewTable("method", "runs", "queries", "commit", "abort", "abort%", "lat(cyc)", "lat(slot)", "span", "cache%", "missed")
	for _, name := range order {
		m := methods[name]
		s := m.agg.Summary()
		t.AddRow(name, m.runs, s.Queries, s.Committed, s.Aborted,
			fmt.Sprintf("%.2f%%", 100*s.AbortRate),
			fmt.Sprintf("%.2f", s.MeanLatency),
			fmt.Sprintf("%.0f", s.MeanLatencySlots),
			fmt.Sprintf("%.2f", s.MeanSpan),
			fmt.Sprintf("%.1f%%", 100*s.CacheHitRate),
			s.CyclesMissed)
	}
	fmt.Fprint(out, t.String())

	// Read-source breakdown: where each method's reads were served from.
	fmt.Fprintln(out, "\nread sources:")
	rt := stats.NewTable("method", "reads", "air", "cache", "version", "restarts", "inv-hits")
	for _, name := range order {
		s := methods[name].agg.Summary()
		rt.AddRow(name, s.Reads, s.AirReads, s.CacheReads, s.VersionReads, s.Restarts, s.InvalidationHits)
	}
	fmt.Fprint(out, rt.String())

	// Span and latency histograms with quantiles, per method.
	fmt.Fprintln(out, "\nquery spans and latencies (cycles):")
	ht := stats.NewTable("method", "span p50", "span p90", "span max", "lat p50", "lat p90", "lat p99", "lat max")
	for _, name := range order {
		m := methods[name]
		ht.AddRow(name,
			fmt.Sprintf("%.1f", m.span.Quantile(0.5)),
			fmt.Sprintf("%.1f", m.span.Quantile(0.9)),
			fmt.Sprintf("%.0f", m.span.Max()),
			fmt.Sprintf("%.1f", m.latency.Quantile(0.5)),
			fmt.Sprintf("%.1f", m.latency.Quantile(0.9)),
			fmt.Sprintf("%.1f", m.latency.Quantile(0.99)),
			fmt.Sprintf("%.0f", m.latency.Max()))
	}
	fmt.Fprint(out, ht.String())

	// Abort breakdown by normalized reason, most frequent first (ties by
	// reason so the rendering is deterministic).
	if len(aborts) > 0 {
		fmt.Fprintln(out, "\naborts by reason:")
		keys := make([]string, 0, len(aborts))
		for k := range aborts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if aborts[keys[i]] != aborts[keys[j]] {
				return aborts[keys[i]] > aborts[keys[j]]
			}
			return keys[i] < keys[j]
		})
		at := stats.NewTable("count", "reason")
		for _, k := range keys {
			at.AddRow(aborts[k], k)
		}
		fmt.Fprint(out, at.String())

		fmt.Fprintln(out, "\nabort timeline (aborts per cycle bucket):")
		renderTimeline(out, abortCycles, minCycle, maxCycle, timelineBuckets)
	} else {
		fmt.Fprintln(out, "\nno aborts recorded.")
	}
	renderPhases()
	return nil
}

// phaseOrder returns the pipeline phases in execution order
// (plan, place, execute), with any unknown phase names appended
// alphabetically.
func phaseOrder[T any](phases map[string]*T) []string {
	canonical := []string{obs.PhasePlan, obs.PhasePlace, obs.PhaseExecute}
	var names []string
	for _, n := range canonical {
		if _, ok := phases[n]; ok {
			names = append(names, n)
		}
	}
	var rest []string
	for n := range phases {
		known := false
		for _, c := range canonical {
			if n == c {
				known = true
				break
			}
		}
		if !known {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// renderTimeline buckets the abort cycles over [minCycle, maxCycle] and
// prints one bar per bucket.
func renderTimeline(out io.Writer, cycles []uint64, minCycle, maxCycle uint64, buckets int) {
	if maxCycle < minCycle {
		return
	}
	span := maxCycle - minCycle + 1
	if uint64(buckets) > span {
		buckets = int(span)
	}
	counts := make([]int, buckets)
	for _, c := range cycles {
		i := int((c - minCycle) * uint64(buckets) / span)
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
	}
	peak := 0
	for _, n := range counts {
		if n > peak {
			peak = n
		}
	}
	const barWidth = 40
	for i, n := range counts {
		lo := minCycle + uint64(i)*span/uint64(buckets)
		hi := minCycle + uint64(i+1)*span/uint64(buckets) - 1
		bar := 0
		if peak > 0 {
			bar = n * barWidth / peak
		}
		fmt.Fprintf(out, "  %6d..%-6d %4d %s\n", lo, hi, n, strings.Repeat("*", bar))
	}
}

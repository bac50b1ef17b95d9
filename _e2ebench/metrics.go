package main

// metric is one reported figure: its name, unit and better direction.
// BENCHMARK.json at the repository root lists the same end-to-end and
// per-layer names; the self-test holds the two in step.
type metric struct {
	name, unit, better string
}

// endToEnd are the figures a user of the system sees, measured with
// tracing off. Failed operations are not a metric: they are the result
// line's "failed" out of "attempted".
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"abort_rate", "ratio", "lower"},
	{"cycles_per_s", "1/s", "higher"},
	{"delivery_us_p50", "us", "lower"},
	{"delivery_us_p99", "us", "lower"},
	{"frame_bytes", "bytes", "lower"},
	{"produce_cycles_per_s", "1/s", "higher"},
	{"catchup_cycles_per_s", "1/s", "higher"},
	{"restart_ms", "ms", "lower"},
	{"disk_bytes_per_cycle", "bytes", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"heap_mb", "MB", "lower"},
}

// fleetLabels are the per-method metric labels, in fleetMethods order.
func fleetLabels() []string {
	out := make([]string, len(fleetMethods))
	for i, m := range fleetMethods {
		out[i] = m.label
	}
	return out
}

// perLayer are the traced pass's figures, named after the modules.
var perLayer = func() []metric {
	ms := []metric{
		{"server.commit_us_p50", "us", "lower"},
		{"server.commit_us_p99", "us", "lower"},
		{"server.commit_allocs", "count", "lower"},
		{"broadcast.assemble_us_p50", "us", "lower"},
		{"broadcast.prime_index_us_p50", "us", "lower"},
		{"cyclesource.produce_us_p50", "us", "lower"},
		{"cyclesource.produce_us_p99", "us", "lower"},
		{"cyclesource.feed_wait_us_p50", "us", "lower"},
		{"cyclesource.feed_wait_us_p99", "us", "lower"},
		{"cyclesource.spilled_get_us_p50", "us", "lower"},
		{"cyclesource.spilled_get_us_p99", "us", "lower"},
		{"wire.encode_us_p50", "us", "lower"},
		{"wire.decode_us_p50", "us", "lower"},
		{"wire.encode_allocs", "count", "lower"},
		{"wire.decode_allocs", "count", "lower"},
		{"wire.frame_bytes", "bytes", "lower"},
		{"durlog.append_us_p50", "us", "lower"},
		{"durlog.append_us_p99", "us", "lower"},
		{"durlog.read_us_p50", "us", "lower"},
		{"durlog.read_us_p99", "us", "lower"},
		{"durlog.open_ms", "ms", "lower"},
		{"durlog.bytes_per_record", "bytes", "lower"},
		{"durlog.segments", "count", "lower"},
		{"netcast.tick_us_p50", "us", "lower"},
		{"netcast.tick_us_p99", "us", "lower"},
		{"netcast.tuner_next_us_p50", "us", "lower"},
		{"netcast.tuner_next_us_p99", "us", "lower"},
		{"netcast.tick_wait_us_p50", "us", "lower"},
		{"netcast.queue_depth_max", "count", "lower"},
		{"netcast.evictions", "count", "lower"},
		{"netcast.drops", "count", "lower"},
	}
	for _, m := range fleetLabels() {
		c := "core." + m + "."
		ms = append(ms,
			metric{c + "new_cycle_us_p50", "us", "lower"},
			metric{c + "new_cycle_us_p99", "us", "lower"},
			metric{c + "serve_us_p50", "us", "lower"},
			metric{c + "commit_us_p50", "us", "lower"},
			metric{c + "allocs_per_cycle", "count", "lower"},
			metric{c + "commit_ratio", "ratio", "higher"},
		)
	}
	for _, m := range fleetLabels() {
		ms = append(ms, metric{"cache." + m + ".hit_ratio", "ratio", "higher"})
	}
	for _, m := range fleetLabels() {
		q := "client." + m + "."
		ms = append(ms,
			metric{q + "query_us_p50", "us", "lower"},
			metric{q + "query_us_p99", "us", "lower"},
			metric{q + "reads_per_query", "count", "lower"},
		)
	}
	return ms
}()

// endToEndValues derives the end-to-end figures of a pass: medians over
// the steps of the workload each figure belongs to. setup_s,
// allocs_per_op and heap_mb belong to every workload and come from the
// one --workload names.
func endToEndValues(primary string, p *pass) map[string]float64 {
	out := map[string]float64{
		"queries_per_s":        medianF(p.fleet.queriesPerS),
		"abort_rate":           p.fleet.abortRate(),
		"cycles_per_s":         medianF(p.live.cyclesPerS),
		"delivery_us_p50":      medianF(p.live.p50s),
		"delivery_us_p99":      medianF(p.live.p99s),
		"frame_bytes":          p.live.frameBytes,
		"produce_cycles_per_s": medianF(p.durable.producePerS),
		"catchup_cycles_per_s": medianF(p.durable.catchupPerS),
		"restart_ms":           medianF(p.durable.restartMS),
		"disk_bytes_per_cycle": medianF(p.durable.diskPerCyc),
	}
	t := map[string]*tally{"fleet-read": &p.fleet.tally, "live-write": &p.live.tally, "durable-catchup": &p.durable.tally}[primary]
	out["setup_s"] = medianF(t.setupS)
	out["allocs_per_op"] = medianF(t.allocsPerOp)
	out["heap_mb"] = medianF(t.heapMB)
	return out
}

package fault

import (
	"fmt"
	"math/rand"

	"bpush/internal/broadcast"
	"bpush/internal/client"
	"bpush/internal/model"
	"bpush/internal/obs"
	"bpush/internal/wire"
)

// corruptWindow is the span, in bytes, of one bit-corruption burst.
const corruptWindow = 32

// Injector interposes a fault Plan between a becast feed and one client.
// It implements client.EventFeed: frames the plan damages beyond the wire
// checksum are reported as lost cycles (with their air time), never as
// data, so the client's downgrade-to-miss recovery — the same machinery
// that handles disconnections — absorbs every fault. Duplicated and
// reordered frames are surfaced as-is; the client runtime's staleness
// filter is expected to discard them.
//
// Every decision comes from one rand.Rand seeded at construction, drawn in
// a fixed per-frame order with zero-probability faults skipped, so the
// whole event stream is a deterministic function of (inner stream, plan,
// seed). An Injector is single-consumer, like the feeds it wraps.
type Injector struct {
	inner client.Feed
	plan  Plan
	rng   *rand.Rand
	rec   obs.Recorder

	queue     []client.Event // deliveries owed before pulling the inner feed
	burstLeft int            // remaining cycles of the active burst outage
	stats     Stats
}

var _ client.EventFeed = (*Injector)(nil)

// New wraps feed with the plan's faults, all drawn from the given seed.
// The RNG construction matches the client runtime's disconnection RNG, so
// a drop-only plan with the client's seed replays its DisconnectProb
// schedule exactly.
func New(feed client.Feed, plan Plan, seed int64) (*Injector, error) {
	if feed == nil {
		return nil, fmt.Errorf("fault: nil feed")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{inner: feed, plan: plan, rng: rand.New(rand.NewSource(seed))}, nil
}

// Stats returns what the injector has done to the stream so far.
func (in *Injector) Stats() Stats { return in.stats }

// Observe attaches a trace recorder: every fault the injector applies is
// recorded as a fault event naming the fault kind, stamped with the cycle
// of the frame it hit. Nil detaches.
func (in *Injector) Observe(rec obs.Recorder) { in.rec = rec }

// recordFault emits one fault event for the frame of cycle c.
func (in *Injector) recordFault(c model.Cycle, kind string) {
	if in.rec != nil {
		in.rec.Record(obs.Event{Type: obs.TypeFault, T: obs.At(c, 0), Reason: kind})
	}
}

// NextEvent implements client.EventFeed.
func (in *Injector) NextEvent() (client.Event, error) {
	if len(in.queue) > 0 {
		ev := in.queue[0]
		in.queue = in.queue[1:]
		if ev.Bcast != nil {
			in.stats.Delivered++
		}
		return ev, nil
	}
	b, err := in.inner.Next()
	if err != nil {
		return client.Event{}, err
	}
	if in.burstLeft > 0 {
		in.burstLeft--
		in.stats.Burst++
		in.recordFault(b.Cycle, "burst")
		return lost(b), nil
	}
	if in.plan.Burst > 0 && in.rng.Float64() < in.plan.Burst {
		in.burstLeft = in.plan.burstLen() - 1
		in.stats.Burst++
		in.recordFault(b.Cycle, "burst")
		return lost(b), nil
	}
	if in.plan.Drop > 0 && in.rng.Float64() < in.plan.Drop {
		in.stats.Dropped++
		in.recordFault(b.Cycle, "drop")
		return lost(b), nil
	}
	if in.plan.Corrupt > 0 && in.rng.Float64() < in.plan.Corrupt {
		got, ok := in.corrupt(b)
		if !ok {
			in.stats.Corrupted++
			in.recordFault(b.Cycle, "corrupt")
			return lost(b), nil
		}
		// The flips cancelled out and the checksum still holds — the
		// frame is bit-identical data, deliver it. The re-decoded becast
		// carries its own CycleIndex, rebuilt from the decoded frame.
		b = got
	}
	if in.plan.Truncate > 0 && in.rng.Float64() < in.plan.Truncate {
		got, ok := in.truncate(b)
		if !ok {
			in.stats.Truncated++
			in.recordFault(b.Cycle, "truncate")
			return lost(b), nil
		}
		b = got
	}
	if in.plan.Duplicate > 0 && in.rng.Float64() < in.plan.Duplicate {
		in.stats.Duplicated++
		in.recordFault(b.Cycle, "duplicate")
		in.queue = append(in.queue, heard(b))
	}
	if in.plan.Reorder > 0 && in.rng.Float64() < in.plan.Reorder {
		if nb, err := in.inner.Next(); err == nil {
			// The successor jumps ahead; b arrives late. The successor is
			// delivered as-is — the swap consumed its fault budget.
			in.stats.Reordered++
			in.recordFault(b.Cycle, "reorder")
			in.queue = append(in.queue, heard(b))
			in.stats.Delivered++
			return heard(nb), nil
		}
		// Stream end: nothing to swap with; deliver b normally.
	}
	in.stats.Delivered++
	return heard(b), nil
}

// corrupt pushes the becast through the wire codec with a burst of bit
// flips applied to its encoded frame. ok reports whether the damaged frame
// still decodes (checksum-valid), in which case the decoded becast is
// returned; otherwise the frame is unhearable.
func (in *Injector) corrupt(b *broadcast.Bcast) (*broadcast.Bcast, bool) {
	frame, err := wire.Encode(b)
	if err != nil {
		return nil, false
	}
	off := in.rng.Intn(len(frame))
	flips := 1 + in.rng.Intn(corruptWindow-1)
	for i := 0; i < flips; i++ {
		pos := off + in.rng.Intn(corruptWindow)
		if pos >= len(frame) {
			pos = len(frame) - 1
		}
		frame[pos] ^= 1 << uint(in.rng.Intn(8))
	}
	got, err := wire.DecodeBytes(frame)
	if err != nil {
		return nil, false
	}
	return got, true
}

// truncate cuts the becast's encoded frame short at a random byte and
// tries to decode the prefix. The checksum trailer makes a valid decode of
// a proper prefix impossible, so ok is false in practice; the decode is
// still attempted so every chaos run exercises the wire hardening.
func (in *Injector) truncate(b *broadcast.Bcast) (*broadcast.Bcast, bool) {
	frame, err := wire.Encode(b)
	if err != nil {
		return nil, false
	}
	cut := in.rng.Intn(len(frame))
	got, err := wire.DecodeBytes(frame[:cut])
	if err != nil {
		return nil, false
	}
	return got, true
}

func lost(b *broadcast.Bcast) client.Event {
	return client.Event{Cycle: b.Cycle, Slots: b.Len()}
}

func heard(b *broadcast.Bcast) client.Event {
	return client.Event{Bcast: b}
}

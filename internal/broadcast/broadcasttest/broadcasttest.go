// Package broadcasttest provides checks for tests of code that carries
// becasts across a boundary — the wire codec, the durable log, the fault
// injector, the network tier — where the receiving side's CycleIndex must
// answer exactly like the producer's.
package broadcasttest

import (
	"fmt"
	"slices"

	"bpush/internal/broadcast"
	"bpush/internal/model"
)

// granularities are the report granularities IndexDiff compares: item
// granularity plus two §7 bucket sizes, one of which does not divide
// typical data-segment lengths.
var granularities = []int{1, 3, 8}

// IndexDiff primes both becasts' indexes and returns an error naming the
// first query on which they disagree, or nil when every query agrees:
// report order, bucket expansions and membership at each of
// granularities, first writers, the compiled SG delta, and every on-air
// item's overflow group.
func IndexDiff(want, got *broadcast.Bcast) error {
	wx, err := want.PrimeIndex()
	if err != nil {
		return fmt.Errorf("want: %w", err)
	}
	gx, err := got.PrimeIndex()
	if err != nil {
		return fmt.Errorf("got: %w", err)
	}
	if !slices.Equal(wx.Ordered(), gx.Ordered()) {
		return fmt.Errorf("Ordered() = %v, want %v", gx.Ordered(), wx.Ordered())
	}
	for _, g := range granularities {
		var we, ge []model.ItemID
		wx.EachInvalidated(g, func(it model.ItemID) { we = append(we, it) })
		gx.EachInvalidated(g, func(it model.ItemID) { ge = append(ge, it) })
		if !slices.Equal(we, ge) {
			return fmt.Errorf("EachInvalidated(%d) = %v, want %v", g, ge, we)
		}
	}
	wd, gd := wx.Delta(), gx.Delta()
	if (wd == nil) != (gd == nil) {
		return fmt.Errorf("Delta() = %v, want %v", gd, wd)
	}
	if wd != nil && (wd.Cycle != gd.Cycle || !slices.Equal(wd.Nodes, gd.Nodes) || !slices.Equal(wd.Edges, gd.Edges)) {
		return fmt.Errorf("Delta() = %+v, want %+v", *gd, *wd)
	}
	items := make([]model.ItemID, 0, len(want.Entries)+len(got.Entries))
	for _, e := range want.Entries {
		items = append(items, e.Item)
	}
	for _, e := range got.Entries {
		items = append(items, e.Item)
	}
	for _, item := range items {
		ww, wok := wx.FirstWriter(item)
		gw, gok := gx.FirstWriter(item)
		if ww != gw || wok != gok {
			return fmt.Errorf("FirstWriter(%v) = %v/%v, want %v/%v", item, gw, gok, ww, wok)
		}
		for _, g := range granularities {
			if w, g2 := wx.Invalidates(item, g), gx.Invalidates(item, g); w != g2 {
				return fmt.Errorf("Invalidates(%v, %d) = %v, want %v", item, g, g2, w)
			}
		}
		if w, g := wx.OldVersionsOf(item), gx.OldVersionsOf(item); !slices.Equal(w, g) {
			return fmt.Errorf("OldVersionsOf(%v) = %v, want %v", item, g, w)
		}
	}
	return nil
}

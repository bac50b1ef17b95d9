package bpush_test

// Black-box tests of the public facade: everything a downstream user can
// reach without touching internal packages.

import (
	"errors"
	"testing"
	"time"

	"bpush"
)

func TestSimulateThroughFacade(t *testing.T) {
	cfg := bpush.DefaultSimConfig()
	cfg.DBSize = 100
	cfg.UpdateRange = 50
	cfg.ReadRange = 100
	cfg.Updates = 5
	cfg.Queries = 60
	cfg.Warmup = 10
	cfg.Check = true
	cfg.Scheme = bpush.SchemeOptions{Kind: bpush.SGT, CacheSize: 20}
	m, err := bpush.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 60 {
		t.Errorf("Queries = %d, want 60", m.Queries)
	}
	if m.Method != "sgt+cache" {
		t.Errorf("Method = %q", m.Method)
	}
}

func TestAllPublicKindsConstruct(t *testing.T) {
	kinds := []struct {
		kind  bpush.SchemeKind
		cache int
	}{
		{bpush.InvalidationOnly, 0},
		{bpush.VersionedCache, 10},
		{bpush.MultiversionBroadcast, 0},
		{bpush.MultiversionCache, 10},
		{bpush.SGT, 0},
	}
	for _, k := range kinds {
		s, err := bpush.NewScheme(bpush.SchemeOptions{Kind: k.kind, CacheSize: k.cache})
		if err != nil {
			t.Errorf("NewScheme(%v): %v", k.kind, err)
			continue
		}
		if s.Kind() != k.kind {
			t.Errorf("Kind() = %v, want %v", s.Kind(), k.kind)
		}
	}
}

func TestErrAbortedExported(t *testing.T) {
	if bpush.ErrAborted == nil {
		t.Fatal("ErrAborted is nil")
	}
	if !errors.Is(bpush.ErrAborted, bpush.ErrAborted) {
		t.Error("ErrAborted does not match itself")
	}
}

func TestStationAndTunerEndToEnd(t *testing.T) {
	station, err := bpush.NewStation(bpush.StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   60,
		Versions: 4,
		Workload: bpush.ServerWorkload{
			DBSize: 60, UpdateRange: 30, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Interval: 5 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = station.Close() }()

	tuner, err := bpush.DialTuner(station.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()

	scheme, err := bpush.NewScheme(bpush.SchemeOptions{Kind: bpush.MultiversionBroadcast})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := bpush.NewClient(scheme, tuner, bpush.ClientConfig{ThinkTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.RunQuery([]bpush.ItemID{5, 50, 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("query aborted: %s", res.AbortReason)
	}
	if len(res.Info.Reads) != 3 {
		t.Errorf("observations = %d, want 3", len(res.Info.Reads))
	}
	// Multiversion: the readset corresponds to the state of the first
	// read's cycle.
	if res.Info.SerializationCycle == 0 {
		t.Error("multiversion commit has no serialization cycle")
	}
}

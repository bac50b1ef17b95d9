package core

import (
	"errors"
	"testing"

	"bpush/internal/model"
)

func TestInvOnlyCommitWithoutUpdates(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly})
	h.mustBegin()
	h.mustRead(3)
	h.cycle() // empty cycle
	h.mustRead(7)
	info := h.mustCommit()
	if info.SerializationCycle != h.cur.Cycle {
		t.Errorf("serialization cycle = %v, want commit cycle %v", info.SerializationCycle, h.cur.Cycle)
	}
	if len(info.Reads) != 2 {
		t.Errorf("len(Reads) = %d, want 2", len(info.Reads))
	}
}

func TestInvOnlyAbortsOnReadsetInvalidation(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(3) // item 3 updated during this cycle
	h.wantAbort(7)
	if _, err := h.scheme.Commit(); !errors.Is(err, ErrAborted) {
		t.Errorf("Commit err = %v, want ErrAborted", err)
	}
}

func TestInvOnlySurvivesUnrelatedUpdates(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(8) // unrelated item
	h.mustRead(8)
	info := h.mustCommit()
	// Reads the *new* value of 8: invalidation-only gives the most
	// current view (state of the commit cycle).
	if info.Reads[1].Value != h.currentValue(8) {
		t.Error("read of updated item did not observe the current value")
	}
}

func TestInvOnlyAbortLatched(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(3)
	h.wantAbort(5)
	// Still aborted on further operations.
	if _, _, err := h.scheme.ServeChannel(6, 0); !errors.Is(err, ErrAborted) {
		t.Errorf("ServeChannel after abort = %v, want ErrAborted", err)
	}
	// A fresh transaction is unaffected.
	h.scheme.Abort()
	h.mustBegin()
	h.mustRead(5)
	h.mustCommit()
}

func TestInvOnlyLifecycleErrors(t *testing.T) {
	s, err := New(Options{Kind: KindInvOnly})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err == nil {
		t.Error("Begin before first cycle succeeded")
	}
	h := newHarness(t, 5, 1, Options{Kind: KindInvOnly})
	if _, _, err := h.scheme.ServeChannel(1, 0); !errors.Is(err, ErrNoTxn) {
		t.Errorf("ServeChannel without txn = %v, want ErrNoTxn", err)
	}
	if _, err := h.scheme.Commit(); !errors.Is(err, ErrNoTxn) {
		t.Errorf("Commit without txn = %v, want ErrNoTxn", err)
	}
	h.mustBegin()
	if err := h.scheme.Begin(); !errors.Is(err, ErrTxnActive) {
		t.Errorf("second Begin = %v, want ErrTxnActive", err)
	}
	if !h.scheme.Active() {
		t.Error("Active() = false with open txn")
	}
}

func TestInvOnlyReplayedCycleIgnored(t *testing.T) {
	h := newHarness(t, 5, 1, Options{Kind: KindInvOnly})
	if err := h.scheme.NewCycle(h.cur); err != nil {
		t.Errorf("replaying the same cycle = %v, want silent discard", err)
	}
	h.mustBegin()
	h.mustRead(3)
	h.mustCommit()
}

func TestInvOnlyUnknownItem(t *testing.T) {
	h := newHarness(t, 5, 1, Options{Kind: KindInvOnly})
	h.mustBegin()
	if _, err := h.read(99); err == nil {
		t.Error("read of unknown item succeeded")
	}
}

func TestInvOnlyMissedCycleAborts(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly})
	h.mustBegin()
	h.mustRead(3)
	h.skipCycle()
	h.resume()
	h.wantAbort(5)
}

func TestInvOnlyCacheServesSecondRead(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly, CacheSize: 5})
	h.mustBegin()
	h.mustRead(3)
	h.mustCommit()
	h.mustBegin()
	r := h.mustRead(3)
	if r.Source != SourceCache {
		t.Errorf("second read source = %v, want cache", r.Source)
	}
	h.mustCommit()
}

func TestInvOnlyCacheInvalidationForcesChannel(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly, CacheSize: 5})
	h.mustBegin()
	h.mustRead(3)
	h.mustCommit()
	h.cycle(3)
	h.mustBegin()
	r := h.mustRead(3)
	if r.Source != SourceBroadcast {
		t.Errorf("read of invalidated page source = %v, want broadcast", r.Source)
	}
	if r.Obs.Value != h.currentValue(3) {
		t.Error("read did not observe the current value")
	}
	h.mustCommit()
}

func TestInvOnlyCacheAutoprefetch(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly, CacheSize: 5})
	h.mustBegin()
	h.mustRead(3)
	h.mustCommit()
	h.cycle(3) // invalidates the cached page
	h.cycle()  // autoprefetch takes effect at the next cycle boundary
	h.mustBegin()
	r := h.mustRead(3)
	if r.Source != SourceCache {
		t.Errorf("read after autoprefetch source = %v, want cache", r.Source)
	}
	if r.Obs.Value != h.currentValue(3) {
		t.Error("autoprefetched page holds a stale value")
	}
	h.mustCommit()
}

func TestVCacheContinuesFromOldEnoughEntries(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindVCache, CacheSize: 10})
	// Seed the cache with items 4 and 5 at cycle 1.
	h.mustBegin()
	h.mustRead(4)
	h.mustRead(5)
	h.mustCommit()

	h.mustBegin()
	h.mustRead(3)
	oldVal5 := h.currentValue(5)
	h.cycle(3, 5) // 3 invalidates the readset -> marked; 5's cached copy predates u
	r := h.mustRead(5)
	if r.Source != SourceCache {
		t.Fatalf("marked read source = %v, want cache", r.Source)
	}
	if r.Obs.Value != oldVal5 {
		t.Errorf("marked read of 5 = %d, want pre-update value %d", r.Obs.Value, oldVal5)
	}
	info := h.mustCommit()
	if info.SerializationCycle != 1 {
		t.Errorf("serialization cycle = %v, want u-1 = 1 (marked at cycle 2)", info.SerializationCycle)
	}
}

func TestVCacheAbortsWhenCacheLacksOldVersion(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindVCache, CacheSize: 10})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(3)     // marked at cycle 3
	h.wantAbort(7) // 7 was never cached
}

func TestVCacheAbortsWhenCachedVersionTooNew(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindVCache, CacheSize: 10})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(5) // updates 5; not in readset
	// Cache 5's fresh value (version = current cycle).
	h.mustRead(5)
	h.cycle(3) // now the readset is invalidated: u = 4
	// 5's cached version has cycle 3 < 4... it qualifies. Read 6 instead,
	// never cached -> abort; then verify 5 succeeded first.
	r := h.mustRead(5)
	if r.Obs.Version >= 4 {
		t.Errorf("served version %v, want < u=4", r.Obs.Version)
	}
	h.wantAbort(6)
}

func TestVCacheMarkedRejectsNewCurrentOnChannel(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindVCache, CacheSize: 10})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(3, 7) // marked; 7 updated the same cycle (version too new)
	h.wantAbort(7)
}

func TestVCacheChannelOldReadsExtension(t *testing.T) {
	h := newHarness(t, 10, 1, Options{
		Kind: KindVCache, CacheSize: 10, AllowChannelOldReads: true,
	})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(3) // marked at u=2
	// Item 7 was never updated: its on-air version (cycle 1) predates u,
	// so the extension serves it from the channel.
	r := h.mustRead(7)
	if r.Source != SourceBroadcast {
		t.Fatalf("source = %v, want broadcast", r.Source)
	}
	info := h.mustCommit()
	if info.SerializationCycle != 1 {
		t.Errorf("serialization cycle = %v, want u-1 = 1", info.SerializationCycle)
	}
}

func TestVCacheRequiresCache(t *testing.T) {
	if _, err := New(Options{Kind: KindVCache}); err == nil {
		t.Error("VCache without cache accepted")
	}
}

func TestVCacheFreshCommitSerializesAtCommitCycle(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindVCache, CacheSize: 10})
	h.mustBegin()
	h.mustRead(3)
	h.cycle(8)
	h.mustRead(4)
	info := h.mustCommit()
	if info.SerializationCycle != h.cur.Cycle {
		t.Errorf("fresh VCache serialization = %v, want commit cycle %v", info.SerializationCycle, h.cur.Cycle)
	}
}

func TestBucketGranularityConservativeAbort(t *testing.T) {
	// Buckets of 5 items: updating item 2 invalidates items 1..5.
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly, BucketGranularity: 5})
	h.mustBegin()
	h.mustRead(4)
	h.cycle(2) // same bucket as 4
	h.wantAbort(9)
}

func TestBucketGranularityOtherBucketSurvives(t *testing.T) {
	h := newHarness(t, 10, 1, Options{Kind: KindInvOnly, BucketGranularity: 5})
	h.mustBegin()
	h.mustRead(9)
	h.cycle(2) // bucket 0; item 9 is in bucket 1
	h.mustRead(7)
	h.mustCommit()
}

func TestBucketGranularityRejectedForSGT(t *testing.T) {
	if _, err := New(Options{Kind: KindSGT, BucketGranularity: 4}); err == nil {
		t.Error("bucket granularity accepted for SGT")
	}
	if _, err := New(Options{Kind: KindMVBroadcast, BucketGranularity: 4}); err == nil {
		t.Error("bucket granularity accepted for multiversion broadcast")
	}
}

func TestFactoryValidation(t *testing.T) {
	if _, err := New(Options{Kind: Kind(0)}); err == nil {
		t.Error("zero kind accepted")
	}
	if _, err := New(Options{Kind: KindInvOnly, CacheSize: -1}); err == nil {
		t.Error("negative cache size accepted")
	}
	if _, err := New(Options{Kind: KindInvOnly, BucketGranularity: -1}); err == nil {
		t.Error("negative granularity accepted")
	}
	if _, err := New(Options{Kind: KindMVCache, CacheSize: 10, OldFraction: 1.5}); err == nil {
		t.Error("old fraction > 1 accepted")
	}
}

func TestParseKind(t *testing.T) {
	tests := []struct {
		give    string
		want    Kind
		wantErr bool
	}{
		{give: "inv-only", want: KindInvOnly},
		{give: "vcache", want: KindVCache},
		{give: "multiversion", want: KindMVBroadcast},
		{give: "mv", want: KindMVBroadcast},
		{give: "mv-cache", want: KindMVCache},
		{give: "mc", want: KindMVCache},
		{give: "sgt", want: KindSGT},
		{give: "2pl", wantErr: true},
		{give: "bogus", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseKind(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseKind(%q) error = %v, wantErr %v", tt.give, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseKind(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	tests := []struct {
		opts Options
		want string
	}{
		{Options{Kind: KindInvOnly}, "inv-only"},
		{Options{Kind: KindInvOnly, CacheSize: 4}, "inv-only+cache"},
		{Options{Kind: KindVCache, CacheSize: 4}, "inv-only+vcache"},
		{Options{Kind: KindMVBroadcast}, "multiversion"},
		{Options{Kind: KindMVBroadcast, CacheSize: 4}, "multiversion+cache"},
		{Options{Kind: KindMVCache, CacheSize: 4}, "mv-cache"},
		{Options{Kind: KindSGT}, "sgt"},
		{Options{Kind: KindSGT, CacheSize: 4}, "sgt+cache"},
	}
	for _, tt := range tests {
		s, err := New(tt.opts)
		if err != nil {
			t.Fatalf("%+v: %v", tt.opts, err)
		}
		if s.Name() != tt.want {
			t.Errorf("Name() = %q, want %q", s.Name(), tt.want)
		}
		if s.Kind() != tt.opts.Kind {
			t.Errorf("Kind() = %v, want %v", s.Kind(), tt.opts.Kind)
		}
	}
}

func TestAbortErrorMatchesErrAborted(t *testing.T) {
	err := abortErr("item %v gone", model.ItemID(3))
	if !errors.Is(err, ErrAborted) {
		t.Error("AbortError does not match ErrAborted")
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatal("errors.As failed")
	}
	if ae.Reason == "" {
		t.Error("empty abort reason")
	}
}

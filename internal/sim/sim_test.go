package sim

import (
	"strings"
	"testing"

	"bpush/internal/core"
)

// testConfig returns a small, fast configuration with the oracle on.
func testConfig(kind core.Kind, cacheSize int) Config {
	cfg := DefaultConfig()
	cfg.DBSize = 200
	cfg.UpdateRange = 100
	cfg.ReadRange = 200
	cfg.Updates = 10
	cfg.ServerTx = 5
	cfg.OpsPerQuery = 6
	cfg.Queries = 150
	cfg.Warmup = 20
	cfg.Check = true
	cfg.Scheme = core.Options{Kind: kind, CacheSize: cacheSize}
	if kind == core.KindMVBroadcast {
		cfg.ServerVersions = 6
	}
	return cfg
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DBSize = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero DBSize accepted")
	}
	cfg = DefaultConfig()
	cfg.ReadRange = cfg.DBSize + 1
	if _, err := Run(cfg); err == nil {
		t.Error("ReadRange > DBSize accepted")
	}
	cfg = DefaultConfig()
	cfg.ServerVersions = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero ServerVersions accepted")
	}
	cfg = DefaultConfig()
	cfg.Queries = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero queries accepted")
	}
	cfg = DefaultConfig()
	cfg.OracleWindow = 1
	if _, err := Run(cfg); err == nil {
		t.Error("tiny oracle window accepted")
	}
	cfg = DefaultConfig()
	cfg.Scheme = core.Options{} // invalid kind
	if _, err := Run(cfg); err == nil {
		t.Error("invalid scheme accepted")
	}
}

// TestAllSchemesPassOracle is the package's master test: every scheme, with
// and without cache, runs a substantial simulation with the consistency
// oracle enabled. Any committed query whose readset is not a subset of a
// consistent database state fails the run.
func TestAllSchemesPassOracle(t *testing.T) {
	tests := []struct {
		name  string
		kind  core.Kind
		cache int
	}{
		{"inv-only", core.KindInvOnly, 0},
		{"inv-only+cache", core.KindInvOnly, 30},
		{"vcache", core.KindVCache, 30},
		{"multiversion", core.KindMVBroadcast, 0},
		{"multiversion+cache", core.KindMVBroadcast, 30},
		{"mv-cache", core.KindMVCache, 30},
		{"sgt", core.KindSGT, 0},
		{"sgt+cache", core.KindSGT, 30},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := Run(testConfig(tt.kind, tt.cache))
			if err != nil {
				t.Fatal(err)
			}
			if m.Queries != 150 {
				t.Errorf("measured %d queries, want 150", m.Queries)
			}
			if m.Committed+m.Aborted != m.Queries {
				t.Errorf("committed %d + aborted %d != %d", m.Committed, m.Aborted, m.Queries)
			}
			if m.Committed > 0 && m.OracleChecked == 0 {
				t.Error("oracle never ran despite commits")
			}
			if m.Committed > 0 && m.MeanLatency < 1 {
				t.Errorf("mean latency %.2f < 1 cycle", m.MeanLatency)
			}
		})
	}
}

func TestMVBroadcastAcceptsEverythingWithinSpan(t *testing.T) {
	cfg := testConfig(core.KindMVBroadcast, 0)
	cfg.ServerVersions = 16 // far beyond any query span
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Aborted != 0 {
		t.Errorf("multiversion broadcast aborted %d queries with S >> span, want 0 (Theorem 2)", m.Aborted)
	}
}

func TestInvOnlyAbortsMoreThanSGT(t *testing.T) {
	inv, err := Run(testConfig(core.KindInvOnly, 0))
	if err != nil {
		t.Fatal(err)
	}
	sgt, err := Run(testConfig(core.KindSGT, 0))
	if err != nil {
		t.Fatal(err)
	}
	if sgt.AbortRate > inv.AbortRate {
		t.Errorf("SGT abort rate %.3f > inv-only %.3f; SGT must accept at least as many (it only aborts on true cycles)",
			sgt.AbortRate, inv.AbortRate)
	}
}

func TestCachingReducesAborts(t *testing.T) {
	noCache, err := Run(testConfig(core.KindInvOnly, 0))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run(testConfig(core.KindInvOnly, 50))
	if err != nil {
		t.Fatal(err)
	}
	if cached.AbortRate > noCache.AbortRate+0.02 {
		t.Errorf("cache increased abort rate: %.3f vs %.3f (caching shrinks span and exposure)",
			cached.AbortRate, noCache.AbortRate)
	}
	if cached.CacheHitRate == 0 {
		t.Error("cache hit rate is zero with a warm cache")
	}
}

func TestVCacheAcceptsMoreThanPlainInvOnly(t *testing.T) {
	plain, err := Run(testConfig(core.KindInvOnly, 30))
	if err != nil {
		t.Fatal(err)
	}
	vc, err := Run(testConfig(core.KindVCache, 30))
	if err != nil {
		t.Fatal(err)
	}
	if vc.AcceptRate < plain.AcceptRate {
		t.Errorf("versioned cache accept rate %.3f < plain cached inv-only %.3f",
			vc.AcceptRate, plain.AcceptRate)
	}
}

func TestMVBroadcastAddsLatency(t *testing.T) {
	// Multiversion readers detour to overflow buckets at the end of the
	// becast; no other scheme pays that (Figure 8).
	mv, err := Run(testConfig(core.KindMVBroadcast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mv.OverflowReadRate == 0 {
		t.Skip("workload produced no overflow reads; latency comparison vacuous")
	}
	inv, err := Run(testConfig(core.KindInvOnly, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mv.MeanBcastSlots <= inv.MeanBcastSlots {
		t.Errorf("MV becast %.1f slots <= inv-only %.1f; old versions must lengthen the broadcast",
			mv.MeanBcastSlots, inv.MeanBcastSlots)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := testConfig(core.KindSGT, 20)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed != b.Committed || a.Aborted != b.Aborted || a.MeanLatency != b.MeanLatency {
		t.Errorf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestSeedChangesWorkload(t *testing.T) {
	cfg := testConfig(core.KindInvOnly, 0)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed == b.Committed && a.MeanLatency == b.MeanLatency && a.MeanSpan == b.MeanSpan {
		t.Error("different seeds produced identical metrics; suspicious")
	}
}

func TestDisconnectionsHurtInvOnlyNotMV(t *testing.T) {
	inv := testConfig(core.KindInvOnly, 0)
	inv.DisconnectProb = 0.2
	invM, err := Run(inv)
	if err != nil {
		t.Fatal(err)
	}
	invBase, err := Run(testConfig(core.KindInvOnly, 0))
	if err != nil {
		t.Fatal(err)
	}
	if invM.AbortRate <= invBase.AbortRate {
		t.Errorf("disconnections did not raise inv-only abort rate: %.3f <= %.3f",
			invM.AbortRate, invBase.AbortRate)
	}
	mv := testConfig(core.KindMVBroadcast, 0)
	mv.ServerVersions = 16
	mv.DisconnectProb = 0.2
	mvM, err := Run(mv)
	if err != nil {
		t.Fatal(err)
	}
	if mvM.AbortRate > 0.1 {
		t.Errorf("multiversion abort rate %.3f under disconnections, want near 0 (inherent tolerance)", mvM.AbortRate)
	}
}

func TestSGTToleratesDisconnectsExtension(t *testing.T) {
	base := testConfig(core.KindSGT, 0)
	base.DisconnectProb = 0.15
	strict, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	tol := base
	tol.Scheme.TolerateDisconnects = true
	relaxed, err := Run(tol)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.AcceptRate < strict.AcceptRate {
		t.Errorf("tolerant SGT accept rate %.3f < strict %.3f", relaxed.AcceptRate, strict.AcceptRate)
	}
}

func TestResyncRecoversDisconnectedCommits(t *testing.T) {
	base := testConfig(core.KindInvOnly, 30)
	base.DisconnectProb = 0.2
	strict, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	resync := base
	resync.Scheme.ResyncOnReconnect = true
	relaxed, err := Run(resync)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.AcceptRate <= strict.AcceptRate {
		t.Errorf("resync accept rate %.3f <= strict %.3f; version-number resynchronization must recover commits",
			relaxed.AcceptRate, strict.AcceptRate)
	}
}

func TestBucketGranularityConservative(t *testing.T) {
	item := testConfig(core.KindInvOnly, 0)
	itemM, err := Run(item)
	if err != nil {
		t.Fatal(err)
	}
	bucket := testConfig(core.KindInvOnly, 0)
	bucket.Scheme.BucketGranularity = 10
	bucketM, err := Run(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if bucketM.AbortRate < itemM.AbortRate {
		t.Errorf("bucket-granularity abort rate %.3f < item-granularity %.3f; coarser reports can only abort more",
			bucketM.AbortRate, itemM.AbortRate)
	}
}

func TestSchemeNameSurfaced(t *testing.T) {
	m, err := Run(testConfig(core.KindSGT, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Method, "sgt") {
		t.Errorf("Method = %q, want sgt variant", m.Method)
	}
}

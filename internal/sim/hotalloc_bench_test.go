package sim

import (
	"testing"

	"bpush/internal/core"
	"bpush/internal/model"
)

// BenchmarkActiveTxnConsumption measures the steady-state per-cycle cost
// of a client holding a read-only transaction open across the whole
// cycle log — the paths the hotalloc analyzer polices from the NewCycle
// entry points: the per-cycle cache-invalidation callback, the sorted
// readset walk, and the autoprefetch scratch. The schemes here keep the
// walk alive for the full log (vcache marks instead of aborting, SGT
// records precedence targets), so every cycle pays the full path.
// Summarized in BENCH_hotalloc.json.
func BenchmarkActiveTxnConsumption(b *testing.B) {
	const cycles = 200
	schemes := []struct {
		name string
		opts core.Options
	}{
		{"inv-only-vcache", core.Options{Kind: core.KindVCache, CacheSize: 100}},
		{"mv-cache", core.Options{Kind: core.KindMVCache, CacheSize: 100}},
		{"sgt", core.Options{Kind: core.KindSGT, CacheSize: 100}},
	}
	log := benchCycleLog(b, cycles)
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.New(sc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.NewCycle(log[0]); err != nil {
					b.Fatal(err)
				}
				if err := s.Begin(); err != nil {
					b.Fatal(err)
				}
				// Give the transaction a readset: the first items the
				// opening becast serves. Items the chunking withholds are
				// skipped; the walk only needs a non-empty set.
				reads := 0
				for item := model.ItemID(0); item < 64 && reads < 8; item++ {
					if _, _, err := s.ServeChannel(item, 0); err == nil {
						reads++
					}
				}
				if reads == 0 {
					b.Fatal("no reads served; the readset walk is not exercised")
				}
				for _, bc := range log[1:] {
					if err := s.NewCycle(bc); err != nil {
						b.Fatal(err)
					}
				}
			}
			total := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(total/float64(b.N*(cycles-1)), "ns/cycle")
		})
	}
}

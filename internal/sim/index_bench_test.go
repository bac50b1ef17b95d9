package sim

import (
	"fmt"
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/core"
)

// benchCycleLog produces one fixed cycle log at the default operating
// point; every becast carries the producer's CycleIndex.
func benchCycleLog(b *testing.B, cycles int) []*broadcast.Bcast {
	b.Helper()
	src, err := benchFleetConfig().NewSource()
	if err != nil {
		b.Fatal(err)
	}
	log := make([]*broadcast.Bcast, cycles)
	for i := range log {
		if log[i], err = src.Get(i); err != nil {
			b.Fatal(err)
		}
	}
	return log
}

// BenchmarkCycleIndexConsumption isolates the per-client per-cycle cost
// of integrating a becast's control information through the producer's
// index (NewCycle across a pre-produced log — production is excluded and
// already measured by BenchmarkCycleProduction). Reported as
// ns/client-cycle; BENCH_sharedindex.json records the history.
func BenchmarkCycleIndexConsumption(b *testing.B) {
	const cycles = 200
	schemes := []struct {
		name string
		opts core.Options
	}{
		{"inv-only", core.Options{Kind: core.KindInvOnly}},
		{"inv-only-bucket", core.Options{Kind: core.KindInvOnly, CacheSize: 100, BucketGranularity: 8}},
		{"sgt", core.Options{Kind: core.KindSGT, CacheSize: 100}},
	}
	for _, sc := range schemes {
		for _, clients := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/clients=%d", sc.name, clients), func(b *testing.B) {
				log := benchCycleLog(b, cycles)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for c := 0; c < clients; c++ {
						s, err := core.New(sc.opts)
						if err != nil {
							b.Fatal(err)
						}
						for _, bc := range log {
							if err := s.NewCycle(bc); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				total := float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(total/float64(b.N*clients*cycles), "ns/client-cycle")
			})
		}
	}
}

// BenchmarkPrimeIndex isolates the cost of deriving one CycleIndex: paid
// once per produced cycle regardless of fleet size, and once per decoded
// frame by each network subscriber.
func BenchmarkPrimeIndex(b *testing.B) {
	log := benchCycleLog(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc := log[i%len(log)]
		if _, err := broadcast.NewCycleIndex(bc); err != nil {
			b.Fatal(err)
		}
	}
}

package bpush_test

import (
	"fmt"

	"bpush"
)

// ExampleSimulate runs the paper's simulation model at a reduced scale and
// prints whether the invalidation-only method commits anything under the
// default update load.
func ExampleSimulate() {
	cfg := bpush.DefaultSimConfig()
	cfg.DBSize = 100
	cfg.UpdateRange = 50
	cfg.ReadRange = 100
	cfg.Updates = 5
	cfg.OpsPerQuery = 4
	cfg.Queries = 50
	cfg.Warmup = 10
	cfg.Check = true // verify every commit against the consistency oracle
	cfg.Scheme = bpush.SchemeOptions{Kind: bpush.InvalidationOnly}

	m, err := bpush.Simulate(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("scheme:", m.Method)
	fmt.Println("some queries committed:", m.Committed > 0)
	fmt.Println("accounting consistent:", m.Committed+m.Aborted == m.Queries)
	// Output:
	// scheme: inv-only
	// some queries committed: true
	// accounting consistent: true
}

// ExampleNewScheme shows how scheme kinds map to the paper's methods.
func ExampleNewScheme() {
	for _, kind := range []bpush.SchemeKind{
		bpush.InvalidationOnly,
		bpush.MultiversionBroadcast,
		bpush.SGT,
	} {
		s, err := bpush.NewScheme(bpush.SchemeOptions{Kind: kind})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(s.Name())
	}
	// Output:
	// inv-only
	// multiversion
	// sgt
}

// ExampleSimulateFleet demonstrates the scalability property: a fleet of
// clients sharing one broadcast stream, each with client-local transaction
// processing.
func ExampleSimulateFleet() {
	cfg := bpush.DefaultSimConfig()
	cfg.DBSize = 100
	cfg.UpdateRange = 50
	cfg.ReadRange = 100
	cfg.Updates = 5
	cfg.OpsPerQuery = 4
	cfg.Queries = 40
	cfg.Warmup = 10
	cfg.Scheme = bpush.SchemeOptions{Kind: bpush.SGT}

	fm, err := bpush.SimulateFleet(cfg, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("clients:", fm.Clients)
	fmt.Println("every client measured:", len(fm.PerClient) == fm.Clients)
	// Output:
	// clients: 3
	// every client measured: true
}

package main

import (
	"strings"
	"testing"
	"time"

	"bpush/internal/core"
	"bpush/internal/netcast"
	"bpush/internal/workload"
)

// TestParseScheme: the -scheme flag goes through core.ParseKind; a known
// name and a short alias map to their kinds, an unknown name is refused.
func TestParseScheme(t *testing.T) {
	if _, err := core.ParseKind("sgt"); err != nil {
		t.Errorf("ParseKind(sgt): %v", err)
	}
	if _, err := core.ParseKind("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if k, err := core.ParseKind("mv"); err != nil || k != core.KindMVBroadcast {
		t.Errorf("ParseKind(mv) = %v, %v", k, err)
	}
}

// testStation starts a 60-item station ticking every 5 ms.
func testStation(t *testing.T) *netcast.Station {
	t.Helper()
	st, err := netcast.NewStation(netcast.StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   60,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 60, UpdateRange: 30, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 3, ReadsPerUpdate: 2,
		},
		Interval: 5 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func TestRunAgainstLiveStation(t *testing.T) {
	st := testStation(t)
	var out strings.Builder
	err := run([]string{
		"-addr", st.Addr(), "-scheme", "multiversion", "-ops", "3", "-queries", "4", "-think", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "/4 committed (multiversion+cache) abort-rate=") {
		t.Errorf("missing summary line:\n%s", got)
	}
	if !strings.Contains(got, "COMMIT") {
		t.Errorf("no committed query against a multiversion stream:\n%s", got)
	}
}

// TestRunRejectsBadOps: a query can read at most every item on air, and
// at least one. Either bound broken must be an error, not a client that
// spins forever drawing distinct items or panics sizing its query.
func TestRunRejectsBadOps(t *testing.T) {
	st := testStation(t)
	for _, ops := range []string{"61", "0", "-1"} {
		t.Run("ops="+ops, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				var out strings.Builder
				done <- run([]string{"-addr", st.Addr(), "-ops", ops, "-queries", "2"}, &out)
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("-ops %s accepted against a 60-item station", ops)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("-ops %s: run did not return", ops)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheme", "nope"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable station accepted")
	}
}

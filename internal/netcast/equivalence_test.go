package netcast

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bpush/internal/wire"
	"bpush/internal/workload"
)

// The equivalence suite pins the sharded broadcaster's core contract:
// sharding changes who writes, never what is written. Every subscriber,
// at every shard count, hears the byte-identical concatenation of the
// seeded source's cycles as wire.Encode renders them — the frame is
// encoded once and shared, so there is no per-path re-encoding that
// could diverge.

// equivStation builds a manual-tick station with the given fan-out
// config and a fixed seed shared by every configuration under test.
func equivStation(t *testing.T, cast Config) *Station {
	t.Helper()
	st, err := NewStation(StationConfig{
		Addr:     "127.0.0.1:0",
		DBSize:   50,
		Versions: 4,
		Workload: workload.ServerConfig{
			DBSize: 50, UpdateRange: 25, Theta: 0.95,
			TxPerCycle: 2, UpdatesPerCycle: 4, ReadsPerUpdate: 2,
		},
		Seed: 42,
		Cast: cast,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// captureStream reads exactly cycles becasts off a raw subscriber conn
// and returns the verbatim wire bytes. wire.Decode never reads past the
// end of a frame, so the tee capture is an exact frame-boundary cut.
func captureStream(conn net.Conn, cycles int) ([]byte, error) {
	var buf bytes.Buffer
	tee := io.TeeReader(conn, &buf)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < cycles; i++ {
		if _, err := wire.Decode(tee); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i+1, err)
		}
	}
	return buf.Bytes(), nil
}

// runEquivConfig attaches subs in-process subscribers, ticks the station
// cycles times, and returns each subscriber's captured stream.
func runEquivConfig(t *testing.T, cast Config, subs, cycles int) [][]byte {
	t.Helper()
	st := equivStation(t, cast)
	conns := make([]net.Conn, subs)
	for i := range conns {
		c, err := st.Cast().SubscribeLocal()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	streams := make([][]byte, subs)
	errs := make([]error, subs)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			streams[i], errs[i] = captureStream(c, cycles)
		}(i, c)
	}
	for i := 0; i < cycles; i++ {
		if err := st.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
	}
	return streams
}

// encodedStream is the reference every subscriber must hear: the seeded
// source's first cycles becasts, each rendered by wire.Encode, in order.
func encodedStream(t *testing.T, cycles int) []byte {
	t.Helper()
	feed := equivStation(t, Config{}).Source().NewFeed()
	var buf bytes.Buffer
	for i := 0; i < cycles; i++ {
		b, err := feed.Next()
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	return buf.Bytes()
}

// TestShardedStreamEquivalence is the differential matrix: shard counts
// {1, 2, 8} crossed with subscriber counts {1, 16, 256}, every stream
// compared byte-for-byte against the encoded reference stream.
func TestShardedStreamEquivalence(t *testing.T) {
	const cycles = 5
	baseline := encodedStream(t, cycles)
	for _, shards := range []int{1, 2, 8} {
		for _, subs := range []int{1, 16, 256} {
			t.Run(fmt.Sprintf("shards=%d/subs=%d", shards, subs), func(t *testing.T) {
				streams := runEquivConfig(t, Config{Shards: shards}, subs, cycles)
				for i, s := range streams {
					if !bytes.Equal(s, baseline) {
						t.Fatalf("subscriber %d of %d (shards=%d): stream diverges from the encoded reference (%d vs %d bytes)",
							i, subs, shards, len(s), len(baseline))
					}
				}
			})
		}
	}
}

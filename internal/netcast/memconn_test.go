package netcast

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// memconn carries the load harness's 10k in-process tuners, so its
// net.Conn semantics — blocking, deadlines, close behavior — are pinned
// here against what the broadcaster and tuner actually rely on.

func TestMemConnRoundTrip(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	msg := []byte("hello from the station")
	go func() { _, _ = a.Write(msg) }()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
	// And the other direction.
	go func() { _, _ = b.Write([]byte("ack")) }()
	got = make([]byte, 3)
	if _, err := io.ReadFull(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ack" {
		t.Fatalf("reverse read %q, want %q", got, "ack")
	}
}

// TestMemConnLargeTransfer pushes far more than the buffer capacity
// through with a concurrent reader, exercising ring wraparound and
// writer blocking/waking.
func TestMemConnLargeTransfer(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = b.Close() }()
	const total = 5 * memBufSize
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 31)
	}
	go func() {
		_, _ = a.Write(src)
		_ = a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("transfer corrupted: %d bytes read, want %d", len(got), total)
	}
}

// TestMemConnCloseDrainsThenEOF: TCP-like close — the peer reads what
// was already buffered, then clean EOF.
func TestMemConnCloseDrainsThenEOF(t *testing.T) {
	a, b := newMemConnPair()
	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tail" {
		t.Fatalf("drained %q, want %q", got, "tail")
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after drain = %v, want io.EOF", err)
	}
	// Writes toward the closed peer fail.
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

// TestMemConnReadDeadline: an expired deadline surfaces as a net.Error
// with Timeout() true, and clearing it makes the conn usable again.
func TestMemConnReadDeadline(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	_ = b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := b.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline read error = %v, want net.Error timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline read blocked %v", elapsed)
	}
	// Clear the deadline; the conn still works.
	_ = b.SetReadDeadline(time.Time{})
	go func() { _, _ = a.Write([]byte("y")) }()
	got := make([]byte, 1)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
}

// TestMemConnWriteDeadline: a writer blocked on a full peer buffer is
// released by its deadline instead of hanging forever — the property the
// broadcaster's write timeout depends on.
func TestMemConnWriteDeadline(t *testing.T) {
	a, b := newMemConnPair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	// Fill the peer's receive buffer.
	if _, err := a.Write(make([]byte, memBufSize)); err != nil {
		t.Fatal(err)
	}
	_ = a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := a.Write([]byte("overflow"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline write error = %v, want net.Error timeout", err)
	}
}

// TestMemConnAddrsDistinct: each pair gets unique, directional
// addresses — tests route stall injection by address, so collisions
// would silently stall the wrong subscriber.
func TestMemConnAddrsDistinct(t *testing.T) {
	a1, b1 := newMemConnPair()
	a2, b2 := newMemConnPair()
	defer func() { _ = a1.Close(); _ = a2.Close() }()
	if a1.LocalAddr().String() != b1.RemoteAddr().String() {
		t.Errorf("pair ends disagree: %v vs %v", a1.LocalAddr(), b1.RemoteAddr())
	}
	if a1.LocalAddr().String() == a2.LocalAddr().String() {
		t.Errorf("distinct pairs share address %v", a1.LocalAddr())
	}
	if a1.LocalAddr().Network() != "mem" {
		t.Errorf("network = %q, want mem", a1.LocalAddr().Network())
	}
	_ = b2
}

// TestMemConnCloseUnblocksReader: Close from another goroutine releases
// a blocked read — shutdown must not strand tuner goroutines.
func TestMemConnCloseUnblocksReader(t *testing.T) {
	a, b := newMemConnPair()
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = a.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("read unblocked with %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the reader")
	}
}

// TestMemConnCloseStopsDeadlineTimers: every frame write arms a
// WriteTimeout deadline timer, and a pending timer keeps its pipe's
// buffer reachable until it fires. Closing both ends must disarm every
// timer, and a deadline set after close must not arm a new one.
func TestMemConnCloseStopsDeadlineTimers(t *testing.T) {
	a, b := newMemConnPair()
	future := time.Now().Add(time.Hour)
	for _, c := range []*memConn{a, b} {
		if err := c.SetDeadline(future); err != nil {
			t.Fatal(err)
		}
	}
	_ = a.Close()
	_ = b.Close()
	_ = a.SetDeadline(future)
	for i, p := range []*memPipe{a.in, a.out} {
		p.mu.Lock()
		armed := p.rtimer != nil || p.wtimer != nil
		p.mu.Unlock()
		if armed {
			t.Errorf("pipe %d: deadline timer still armed after close", i)
		}
	}
}

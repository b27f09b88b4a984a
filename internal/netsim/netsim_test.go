package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

func TestDelayFor(t *testing.T) {
	p := LinkParams{Latency: time.Millisecond, Bandwidth: 1 << 20}
	if d := p.delayFor(0); d != time.Millisecond {
		t.Fatalf("zero-byte delay = %v", d)
	}
	// 1 MiB at 1 MiB/s = 1s (+latency).
	if d := p.delayFor(1 << 20); d != time.Second+time.Millisecond {
		t.Fatalf("1MiB delay = %v", d)
	}
	if d := (LinkParams{}).delayFor(1 << 20); d != 0 {
		t.Fatalf("unshaped delay = %v", d)
	}
}

func TestShapeNoopForZeroParams(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	if Shape(c, LinkParams{}) != c {
		t.Fatal("zero params should return the conn unchanged")
	}
}

func TestPipeTransfersData(t *testing.T) {
	c, s := BufferedPipe(LinkParams{}, 1)
	defer c.Close()
	defer s.Close()
	go func() {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("got %q", buf)
	}
}

func TestShapedWriteIsDelayed(t *testing.T) {
	c, s := BufferedPipe(LinkParams{Latency: 20 * time.Millisecond}, 1)
	defer c.Close()
	defer s.Close()
	start := time.Now()
	go func() {
		_, _ = c.Write([]byte("x"))
	}()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 20ms", elapsed)
	}
}

func TestBufferedPipeDoesNotBlockWriter(t *testing.T) {
	c, s := BufferedPipe(LinkParams{}, 8)
	defer c.Close()
	defer s.Close()
	// Several writes complete with no reader present.
	for i := 0; i < 4; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 1, 2, 3}) {
		t.Fatalf("got %v", buf)
	}
}

func TestBufferedPipePartialReads(t *testing.T) {
	c, s := BufferedPipe(LinkParams{}, 2)
	defer c.Close()
	defer s.Close()
	if _, err := c.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	b1 := make([]byte, 2)
	b2 := make([]byte, 4)
	if _, err := io.ReadFull(s, b1); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(s, b2); err != nil {
		t.Fatal(err)
	}
	if string(b1)+string(b2) != "abcdef" {
		t.Fatalf("got %q + %q", b1, b2)
	}
}

func TestBufferedPipeClose(t *testing.T) {
	c, s := BufferedPipe(LinkParams{}, 2)
	if _, err := c.Write([]byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close should be harmless")
	}
	// Data written before close is still readable.
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "last" {
		t.Fatalf("got %q", buf)
	}
	// Then EOF-ish error.
	if _, err := s.Read(buf); err == nil {
		t.Fatal("read after close should fail")
	}
	// Writes to a closed pipe fail.
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
}

func TestWriterDataIsSnapshotted(t *testing.T) {
	c, s := BufferedPipe(LinkParams{}, 2)
	defer c.Close()
	defer s.Close()
	data := []byte("orig")
	if _, err := c.Write(data); err != nil {
		t.Fatal(err)
	}
	copy(data, "MUT!") // mutate after write returns
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "orig" {
		t.Fatalf("got %q, want snapshot", buf)
	}
}

// result runs f on its own goroutine and returns its error, or fails
// the test when f is still blocked after limit.
func result(t *testing.T, limit time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("still blocked after %v", limit)
		return nil
	}
}

// TestPipeReadDeadline: a Read blocked on an empty pipe fails with
// os.ErrDeadlineExceeded once its deadline passes, and wakes at once
// when the deadline is moved into the past; clearing the deadline
// makes the end readable again.
func TestPipeReadDeadline(t *testing.T) {
	c, s := BufferedPipe(LinkParams{}, 1)
	defer c.Close()
	defer s.Close()
	buf := make([]byte, 4)
	s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if err := result(t, 5*time.Second, func() error { _, err := s.Read(buf); return err }); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}

	s.SetReadDeadline(time.Now().Add(time.Hour))
	blocked := make(chan error, 1)
	go func() { _, err := s.Read(buf); blocked <- err }()
	time.Sleep(10 * time.Millisecond) // let the Read block
	s.SetReadDeadline(time.Now())
	select {
	case err := <-blocked:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read woken by a moved deadline: %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("moving the deadline into the past did not wake the blocked Read")
	}

	s.SetReadDeadline(time.Time{})
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := result(t, 5*time.Second, func() error { _, err := io.ReadFull(s, buf); return err }); err != nil || string(buf) != "ping" {
		t.Fatalf("Read after the deadline was cleared: %q, %v", buf, err)
	}
}

// TestPipeWriteDeadline: a Write blocked on a full pipe fails with
// os.ErrDeadlineExceeded once its deadline passes; SetDeadline sets
// both directions.
func TestPipeWriteDeadline(t *testing.T) {
	c, s := BufferedPipe(LinkParams{}, 1)
	defer c.Close()
	defer s.Close()
	if _, err := c.Write([]byte("fill")); err != nil {
		t.Fatal(err)
	}
	c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if err := result(t, 5*time.Second, func() error { _, err := c.Write([]byte("more")); return err }); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Write past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	c.SetDeadline(time.Now().Add(-time.Second))
	if err := result(t, 5*time.Second, func() error { _, err := c.Read(make([]byte, 1)); return err }); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read after SetDeadline in the past: %v, want os.ErrDeadlineExceeded", err)
	}
	c.SetDeadline(time.Time{})
	if err := result(t, 5*time.Second, func() error {
		_, err := io.ReadFull(s, make([]byte, 4))
		if err == nil {
			_, err = c.Write([]byte("more"))
		}
		return err
	}); err != nil {
		t.Fatalf("Write after the deadline was cleared: %v", err)
	}
}

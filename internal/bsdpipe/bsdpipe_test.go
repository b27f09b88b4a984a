package bsdpipe

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	p := New()
	go func() {
		_, _ = p.Write([]byte("hello monolith"))
		p.CloseWrite()
	}()
	var got []byte
	buf := make([]byte, 8)
	for {
		n, err := p.Read(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "hello monolith" {
		t.Fatalf("got %q", got)
	}
}

func TestBlockingAt4K(t *testing.T) {
	p := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 8K through the fixed 4K buffer requires a concurrent reader.
		_, _ = p.Write(make([]byte, 8192))
		p.CloseWrite()
	}()
	total := 0
	buf := make([]byte, 4096)
	for {
		n, err := p.Read(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	<-done
	if total != 8192 {
		t.Fatalf("total = %d", total)
	}
}

func TestQuickStreamIntegrity(t *testing.T) {
	f := func(data []byte) bool {
		p := New()
		go func() {
			_, _ = p.Write(data)
			p.CloseWrite()
		}()
		var got []byte
		buf := make([]byte, 1031)
		for {
			n, err := p.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, buf[:n]...)
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

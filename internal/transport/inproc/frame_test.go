package inproc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"flexrpc/internal/runtime"
)

// TestFrameConcurrentSameDomain: eight goroutines share one inproc.Conn
// over the benchmark's presentations, and put's work function calls back
// into the same binding. Every call must see its own arguments and land
// its own reply. Run under -race (ci.sh repeats it): every direct call,
// the callback included, borrows a frame from the pool and must be done
// with it — its outs delivered, its lent arguments dropped — before it
// returns the frame.
func TestFrameConcurrentSameDomain(t *testing.T) {
	blob := make([]byte, 1<<10)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	disp := runtime.NewDispatcher(benchPres(t, "server.pdl"))
	var conn *Conn
	disp.Handle("nop", func(c *runtime.Call) error { return nil })
	disp.Handle("put", func(c *runtime.Call) error {
		// The caller fills its buffer with one byte and sizes it by that
		// byte, so a buffer from another call shows.
		data := c.ArgBytes(0)
		if len(data) == 0 || len(data) != int(data[0])+1 || bytes.Count(data, data[:1]) != len(data) || !c.ArgPrivate(0) {
			return fmt.Errorf("put saw a buffer of %d bytes that is not its caller's", len(data))
		}
		_, _, err := conn.Invoke("nop", nil, nil, nil)
		return err
	})
	disp.Handle("fetch", func(c *runtime.Call) error {
		c.SetResult(blob[:c.Arg(0).(uint32)])
		return nil
	})
	conn, err := Connect(benchPres(t, "client.pdl"), disp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			retBuf := make([]byte, len(blob))
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0, 2:
					if _, _, err := conn.Invoke("nop", nil, nil, nil); err != nil {
						t.Error(err)
						return
					}
				case 1:
					b := byte(g*31 + i)
					if _, _, err := conn.Invoke("put", []runtime.Value{bytes.Repeat([]byte{b}, int(b)+1)}, nil, nil); err != nil {
						t.Errorf("goroutine %d call %d: %v", g, i, err)
						return
					}
				case 3:
					n := uint32(1 + (g*97+i*13)%len(blob))
					_, ret, err := conn.Invoke("fetch", []runtime.Value{n}, nil, retBuf)
					got, _ := ret.([]byte)
					if err != nil || !bytes.Equal(got, blob[:n]) || &got[0] != &retBuf[0] {
						t.Errorf("goroutine %d call %d: fetch(%d) did not land its own reply in its buffer: %v", g, i, n, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

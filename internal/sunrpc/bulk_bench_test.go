package sunrpc

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/xdr"
)

// BenchmarkBulkTCP is the bulk round trip ROADMAP quotes: a call whose
// request (put) or reply (fetch) carries size bytes, over loopback TCP,
// through the goroutine feed (pool) and the poller feed (netpoll). It
// makes the record layer's copies visible — the repository benchmark's
// workloads stop at 8 KiB.
func BenchmarkBulkTCP(b *testing.B) {
	const procPut, procFetch = 30, 31
	for _, size := range []int{64 << 10, 1 << 20} {
		for _, dir := range []string{"put", "fetch"} {
			for _, feed := range []string{"pool", "netpoll"} {
				b.Run(fmt.Sprintf("%s/%dKiB/%s", dir, size>>10, feed), func(b *testing.B) {
					if feed == "netpoll" && !netpoll.Supported() {
						b.Skip("netpoll unsupported on this platform")
					}
					payload := bytes.Repeat([]byte{0xA5}, size)
					s := newTestServer()
					s.Register(procPut, func(args *xdr.Decoder, _ *xdr.Encoder) error {
						_, err := args.Opaque()
						return err
					})
					s.Register(procFetch, func(_ *xdr.Decoder, reply *xdr.Encoder) error {
						reply.PutOpaque(payload)
						return nil
					})
					s.SetConcurrency(2)
					s.SetNetpoll(feed == "netpoll")
					l, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					go s.Serve(l)
					conn, err := net.Dial("tcp", l.Addr().String())
					if err != nil {
						b.Fatal(err)
					}
					c := NewClient(conn, testProg, testVers)
					defer func() {
						c.Close()
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						s.Drain(ctx)
					}()
					call := func() error {
						return c.Call(procPut, func(e *xdr.Encoder) { e.PutOpaque(payload) }, nil)
					}
					if dir == "fetch" {
						call = func() error {
							return c.Call(procFetch, nil, func(d *xdr.Decoder) error {
								got, err := d.Opaque()
								if err == nil && len(got) != size {
									err = fmt.Errorf("fetched %d bytes", len(got))
								}
								return err
							})
						}
					}
					for i := 0; i < 20; i++ { // buffers reach their working size
						if err := call(); err != nil {
							b.Fatal(err)
						}
					}
					b.SetBytes(int64(size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := call(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

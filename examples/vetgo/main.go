// The vetgo example is deliberately wrong. Every handler below
// compiles, runs, and passes a naive round-trip — and every one
// breaks the annotation contract it registered under, in a way that
// only corrupts later, under frame reuse, retransmission, or a
// deadline. This is flexvet's Go-side test range: the analyzer must
// flag each seeded violation with a position.
//
//	go run ./cmd/flexc vet -go \
//	    -idl examples/vetgo/vetgo.idl -pdl examples/vetgo/server.pdl \
//	    ./examples/vetgo
//
// expects findings FV017 (borrow escape), FV018 (impure [idempotent]
// handler), FV020 (dropped context) and FV023 (pooled record borrow
// escape) — all in this file.
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"

	"flexrpc"
)

//go:embed vetgo.idl
var idl string

//go:embed server.pdl
var serverPDL string

// lastPut retains the most recent put payload. Keeping the []byte
// itself — not a copy — is the seeded FV017: it aliases the request
// frame, which the dispatcher recycles after the reply.
var lastPut []byte

// bumps is shared state mutated by the [idempotent] vg_bump handler —
// the seeded FV018: a retransmitted call double-counts.
var bumps int64

// A backend stands in for any context-aware downstream dependency.
type backend interface {
	Get(ctx context.Context, key string) ([]byte, error)
}

type mapBackend map[string][]byte

func (m mapBackend) Get(_ context.Context, key string) ([]byte, error) {
	return m[key], nil
}

func register(disp *flexrpc.Dispatcher, b backend) {
	disp.Handle("nop", func(c *flexrpc.Call) error { return nil })
	disp.Handle("put", func(c *flexrpc.Call) error {
		lastPut = c.ArgBytes(0) // FV017: borrowed frame bytes escape the call
		return nil
	})
	disp.Handle("vg_bump", func(c *flexrpc.Call) error {
		bumps++ // FV018: [idempotent] handler writes shared state
		c.SetResult(bumps)
		return nil
	})
	disp.Handle("vg_fetch", func(c *flexrpc.Call) error {
		// FV020: the client's deadline is in c.Context(), and this
		// drops it on the floor.
		data, err := b.Get(context.Background(), c.Arg(0).(string))
		if err != nil {
			return err
		}
		c.SetResult(data)
		return nil
	})
}

// lastRecord retains decoder bytes from the raw Sun RPC handler below
// — the seeded FV023 retention target.
var lastRecord []byte

// rawServer is the seeded FV023: the handler retains bytes that alias
// the request record, and the server recycles that buffer the moment
// the handler returns, whatever mode it serves in.
func rawServer() *flexrpc.SunServer {
	s := flexrpc.NewSunServer(0x20049630, 1)
	s.SetNetpoll(true)
	s.Register(1, func(d *flexrpc.SunDecoder, e *flexrpc.SunEncoder) error {
		payload, err := d.Opaque()
		if err != nil {
			return err
		}
		lastRecord = payload // FV023: pooled record bytes escape the handler
		e.PutUint32(uint32(len(payload)))
		return nil
	})
	return s
}

func main() {
	compiled, err := flexrpc.Compile(flexrpc.Options{
		Frontend: flexrpc.FrontendCORBA,
		Filename: "vetgo.idl",
		Source:   idl,
	})
	if err != nil {
		log.Fatal(err)
	}
	serverSide, err := compiled.WithPDL("server.pdl", serverPDL)
	if err != nil {
		log.Fatal(err)
	}

	disp := flexrpc.NewDispatcher(serverSide.Pres)
	register(disp, mapBackend{"k": []byte("v")})
	inv, err := flexrpc.ConnectInProc(compiled.Pres, disp)
	if err != nil {
		log.Fatal(err)
	}

	// The naive smoke test every one of these bugs survives.
	if _, _, err := inv.Invoke("put", []flexrpc.Value{[]byte("payload")}, nil, nil); err != nil {
		log.Fatal(err)
	}
	if _, ret, err := inv.Invoke("vg_bump", []flexrpc.Value{"k"}, nil, nil); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("vg_bump -> %v (looks fine; a retransmission would double-count)\n", ret)
	}
	if _, ret, err := inv.Invoke("vg_fetch", []flexrpc.Value{"k"}, nil, nil); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("vg_fetch -> %q (looks fine; ignores the caller's deadline)\n", ret)
	}

	// The raw Sun RPC server builds cleanly too: a smoke test that
	// checks each reply before the next record arrives never sees the
	// retained bytes rewritten.
	_ = rawServer()
	fmt.Println("run flexc vet -go to see what the smoke test missed")
}

package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/inproc"
	"flexrpc/internal/transport/shmring"
	"flexrpc/internal/transport/suntcp"
)

// Probes are isolated timed loops over public functions, on the
// workload's own inputs: they attach a number to a layer the workloads
// only cross as part of a whole call. They gate nothing.

const probeReps = 5

// timeLoop runs f in batches for about d, probeReps times, and returns
// the median nanoseconds per f.
func timeLoop(d time.Duration, batch int, f func()) float64 {
	per := int64(d) / probeReps
	var reps []float64
	for i := 0; i < probeReps; i++ {
		n, t0, el := 0, now(), int64(0)
		for el < per || n == 0 {
			for j := 0; j < batch; j++ {
				f()
			}
			n += batch
			el = now() - t0
		}
		reps = append(reps, float64(el)/float64(n))
	}
	return median(reps)
}

// loopback carries session frames straight into a SessionServer,
// copying each reply the way a wire would.
type loopback struct{ sess *runtime.SessionServer }

func (l loopback) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	return append(replyBuf[:0], l.sess.Handle(context.Background(), opIdx, req)...), nil
}
func (l loopback) Close() error { return nil }

// probes runs the whole set within about budget.
func (r *run) probes(budget time.Duration) error {
	const numProbes = 35 // timeLoop calls below, the four plan directions counted per op
	d := budget / numProbes
	in := r.in
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ns := func(name string, batch int, f func()) { r.set(name, timeLoop(d, batch, f)) }
	us := func(name string, f func()) { r.set(name, timeLoop(d, 1, f)/1e3) }

	r.set("bench.timer_overhead_ns", timeLoop(d, 64, func() { _ = now() - now() }))

	// Where set-up time goes.
	cp, sp, err := compilePres()
	if err != nil {
		return err
	}
	us("core.compile_us", func() {
		_, _, err := compilePres()
		must(err)
	})
	us("runtime.plan.bind_us", func() {
		_, err := runtime.NewPlan(cp, runtime.XDRCodec, nil)
		must(err)
		_, err = runtime.NewPlan(sp, runtime.XDRCodec, nil)
		must(err)
	})
	disp := runtime.NewDispatcher(sp)
	(&app{in: in}).register(disp, nil)
	us("inproc.connect_us", func() {
		_, err := inproc.Connect(cp, disp)
		must(err)
	})
	us("shmring.connect_us", func() {
		b, err := shmring.Connect(cp, disp, runtime.XDRCodec, shmring.Options{})
		must(err)
		if err == nil {
			b.Close()
		}
	})

	// The marshal plan, one direction and one op at a time.
	cplan, err := runtime.NewPlan(cp, runtime.XDRCodec, nil)
	if err != nil {
		return err
	}
	splan, err := runtime.NewPlan(sp, runtime.XDRCodec, nil)
	if err != nil {
		return err
	}
	attr := in.attrs[0]
	opArgs := [numOps][]runtime.Value{nil, {in.payloads[0]}, in.fetchArgs[0], in.getattrArgs[0]}
	opRet := [numOps]runtime.Value{nil, nil, in.fetchWant(in.fetchLens[0]), attr}
	retBuf := make([]byte, in.payload)
	for k := opKind(0); k < numOps; k++ {
		cop, sop := cplan.Ops[k], splan.Ops[k]
		args, ret := opArgs[k], opRet[k]
		enc := runtime.XDRCodec.NewEncoder()
		ns("runtime.plan.encode_req."+opNames[k]+"_ns", 16, func() {
			enc.Reset()
			must(cop.EncodeRequest(enc, args))
		})
		req := append([]byte(nil), enc.Bytes()...)
		into := make([]runtime.Value, len(args))
		ns("runtime.plan.decode_req."+opNames[k]+"_ns", 16, func() {
			dec := splan.AcquireDecoder(req)
			must(sop.DecodeRequestInto(dec, into))
			splan.ReleaseDecoder(dec)
		})
		ns("runtime.plan.encode_rep."+opNames[k]+"_ns", 16, func() {
			enc.Reset()
			must(sop.EncodeReply(enc, nil, ret))
		})
		rep := append([]byte(nil), enc.Bytes()...)
		ns("runtime.plan.decode_rep."+opNames[k]+"_ns", 16, func() {
			dec := cplan.AcquireDecoder(rep)
			_, _, err := cop.DecodeReply(dec, nil, retBuf)
			must(err)
			cplan.ReleaseDecoder(dec)
		})
	}
	for _, c := range []struct {
		name  string
		codec runtime.Codec
	}{{"xdr", runtime.XDRCodec}, {"cdr", runtime.CDRCodec}} {
		plan, err := runtime.NewPlan(sp, c.codec, nil)
		if err != nil {
			return err
		}
		op, enc := plan.Ops[opGetattr], c.codec.NewEncoder()
		ns(c.name+".getattr_roundtrip_ns", 16, func() {
			enc.Reset()
			must(op.EncodeReply(enc, nil, attr))
			dec := plan.AcquireDecoder(enc.Bytes())
			_, _, err := op.DecodeReply(dec, nil, nil)
			must(err)
			plan.ReleaseDecoder(dec)
		})
	}

	// Session layer and dispatcher, no transport under them.
	sess := runtime.NewSessionServer(disp, splan, runtime.NewReplyCacheSharded(runtime.DefaultReplyCacheSize, 0))
	rc := runtime.NewRobustConn(loopback{sess}, cp, runtime.RobustOptions{ClientID: 1, AtMostOnce: true})
	var replyBuf []byte
	ns("runtime.session.loopback_ns", 16, func() {
		reply, err := rc.Call(int(opNop), nil, replyBuf)
		must(err)
		replyBuf = reply[:0]
	})
	enc := runtime.XDRCodec.NewEncoder()
	ns("runtime.dispatcher.serve_null_ns", 16, func() {
		enc.Reset()
		must(disp.ServeMessageRaw(splan, int(opNop), nil, enc))
	})

	// Same-domain null calls, and what switching stats on costs one.
	ic, err := inproc.Connect(cp, disp)
	if err != nil {
		return err
	}
	null := func(inv runtime.Invoker) func() {
		return func() {
			_, _, err := inv.Invoke("nop", nil, nil, nil)
			must(err)
		}
	}
	r.set("inproc.null_ns", timeLoop(d, 64, null(ic)))
	ic.EnableStats()
	r.set("stats.on_overhead_ns", timeLoop(d, 64, null(ic))-r.res.Metrics["inproc.null_ns"].Value)

	// The untrusted binding uses the default presentations: no PDL, so
	// no [trusted], so shmring keeps validation and the ownership
	// protocol.
	plain, err := core.Compile(core.Options{Frontend: core.FrontendCORBA, Filename: "bench.idl", Source: idlSrc})
	if err != nil {
		return err
	}
	pdisp := runtime.NewDispatcher(plain.Pres)
	(&app{in: in}).register(pdisp, nil)
	for _, s := range []struct {
		name string
		cp   *pres.Presentation
		disp *runtime.Dispatcher
		opts shmring.Options
	}{
		{"shmring.inline.null_ns", cp, disp, shmring.Options{}},
		{"shmring.doorbell.null_ns", cp, disp, shmring.Options{ForceDoorbell: true}},
		{"shmring.doorbell_untrusted.null_ns", plain.Pres, pdisp, shmring.Options{}},
	} {
		b, err := shmring.Connect(s.cp, s.disp, runtime.XDRCodec, s.opts)
		if err != nil {
			return err
		}
		r.set(s.name, timeLoop(d, 16, null(b)))
		b.Close()
	}

	// Raw Sun RPC null round trips over loopback TCP, depth 1, beside a
	// bare TCP ping-pong that runs no flexrpc code at all.
	for _, m := range []struct {
		name    string
		workers int
		netpoll bool
	}{{"serial", 1, false}, {"pool", 2, false}, {"netpoll", 2, true}} {
		srv := sunrpc.NewServer(suntcp.DefaultProgram, 1)
		srv.SetConcurrency(m.workers)
		srv.SetNetpoll(m.netpoll)
		err := withServer(srv, func(addr string) error {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return err
			}
			cl := sunrpc.NewClient(nc, suntcp.DefaultProgram, 1)
			defer cl.Close()
			us("sunrpc."+m.name+".null_rtt_us", func() { must(cl.Call(0, nil, nil)) })
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := r.probePingPong(d); err != nil {
		return err
	}

	// Dial, bind and first reply against a server that is already up. An
	// eighth of a probe's time: every dial leaves a socket in TIME_WAIT,
	// and thousands of those slow the next run's connects (see run.go).
	ssrv := suntcp.NewSessionServer(sess, sp.Interface)
	ssrv.SetConcurrency(2)
	err = withServer(ssrv, func(addr string) error {
		r.set("suntcp.dial_first_call_us", 1e-3*timeLoop(d/8, 1, func() {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				must(err)
				return
			}
			conn := runtime.NewRobustConn(suntcp.Dial(nc, cp), cp, runtime.RobustOptions{ClientID: 2, AtMostOnce: true})
			cl, err := runtime.NewClient(cp, runtime.XDRCodec, conn, nil)
			must(err)
			if err == nil {
				null(cl)()
				cl.Close()
			} else {
				nc.Close()
			}
		}))
		return nil
	})
	if err != nil {
		return err
	}
	if firstErr != nil {
		return fmt.Errorf("probe: %w", firstErr)
	}
	return nil
}

// withServer serves srv on a loopback listener while f runs, then
// drains it.
func withServer(srv *sunrpc.Server, f func(addr string) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	ferr := f(ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	derr := srv.Drain(ctx)
	serr := <-served
	for _, err := range []error{ferr, derr, serr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// probePingPong times a 64-byte echo over loopback TCP: the kernel
// floor under every tcp_* call.
func (r *run) probePingPong(d time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				echoed <- nil // the client closing ends the echo
				return
			}
			if _, err := c.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	buf := make([]byte, 64)
	var perr error
	r.set("net.loopback_rtt_us", timeLoop(d, 1, func() {
		if _, err := nc.Write(buf); err != nil && perr == nil {
			perr = err
		}
		if _, err := io.ReadFull(nc, buf); err != nil && perr == nil {
			perr = err
		}
	})/1e3)
	nc.Close()
	if err := <-echoed; err != nil {
		return err
	}
	return perr
}

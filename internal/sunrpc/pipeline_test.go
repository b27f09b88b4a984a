package sunrpc

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"flexrpc/internal/xdr"
)

// TestPipelinedCallsInterleave proves the client keeps several calls
// in flight on one connection and matches replies to callers by xid:
// the server collects four complete call records before answering any
// of them — in reverse arrival order — which only a pipelined,
// xid-demultiplexing client can survive.
func TestPipelinedCallsInterleave(t *testing.T) {
	const calls = 4
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()

	go func() {
		type req struct {
			xid uint32
			arg int32
		}
		var reqs []req
		var buf []byte
		for len(reqs) < calls {
			rec, err := readRecord(sc, buf)
			if err != nil {
				return
			}
			buf = rec[:cap(rec)]
			var d xdr.Decoder
			d.Reset(rec)
			h, err := decodeCall(&d)
			if err != nil {
				return
			}
			v, err := d.Int32()
			if err != nil {
				return
			}
			reqs = append(reqs, req{xid: h.XID, arg: v})
		}
		// All four calls are now provably outstanding at once.
		// Answer newest-first so correctness depends on xid
		// matching, not on reply order.
		var e xdr.Encoder
		for i := len(reqs) - 1; i >= 0; i-- {
			e.Reset()
			encodeAcceptedReply(&e, reqs[i].xid, Success)
			e.PutUint32(uint32(reqs[i].arg * 10))
			if err := writeRecord(sc, e.Bytes()); err != nil {
				return
			}
		}
	}()

	c := NewClient(cc, testProg, testVers)
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			arg := int32(i + 1)
			var got int32
			err := c.Call(procEcho,
				func(e *xdr.Encoder) { e.PutUint32(uint32(arg)) },
				func(d *xdr.Decoder) error {
					v, err := d.Int32()
					got = v
					return err
				})
			if err != nil {
				errs[i] = err
				return
			}
			if got != arg*10 {
				errs[i] = fmt.Errorf("call %d: got %d, want %d", i, got, arg*10)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// oneRecordFeed runs the loop every production feed runs, one record
// per next call: one read at a time, straight into the record buffer's
// spare capacity when the landing rule says so, else into the scratch
// and through feed. The record buffer is reused from call to call.
type oneRecordFeed struct {
	r       io.Reader
	asm     recordAssembler
	scratch []byte
	unfed   []byte // read but not yet fed
	rec     []byte
	ahead   int // most capacity rec ever held beyond the bytes received for it
}

// next returns the next complete record, or the error that ended the
// stream: the reader's, or the assembler's rejection.
func (f *oneRecordFeed) next() ([]byte, error) {
	f.rec = f.rec[:0]
	for {
		if len(f.unfed) > 0 {
			used, complete, err := f.asm.feed(f.unfed, &f.rec)
			f.ahead = max(f.ahead, cap(f.rec)-len(f.rec))
			if f.unfed = f.unfed[used:]; complete || err != nil {
				return f.rec, err
			}
			continue
		}
		if dst := f.asm.landing(&f.rec, len(f.scratch)); dst != nil {
			n, err := f.r.Read(dst)
			f.ahead = max(f.ahead, cap(f.rec)-len(f.rec)-n)
			if f.asm.landed(n, &f.rec) {
				return f.rec, nil
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		n, err := f.r.Read(f.scratch)
		if f.unfed = f.scratch[:n]; n == 0 && err != nil {
			return nil, err
		}
	}
}

// TestReadRecordSteadyStateNoAllocs checks that a long sequence of
// same-sized messages assembled into a reused buffer settles into zero
// allocations per record — growth is geometric, not linear — both for
// records that pass through the feed's scratch and for bulk ones that
// land directly in the buffer.
func TestReadRecordSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	for _, size := range []int{1500, 3 * goReadBuf} {
		msg := bytes.Repeat([]byte{0x5A}, size)
		var stream bytes.Buffer
		const n = 90
		for i := 0; i < n; i++ {
			if err := writeRecord(&stream, msg); err != nil {
				t.Fatal(err)
			}
		}
		f := &oneRecordFeed{r: bytes.NewReader(stream.Bytes()), asm: recordAssembler{limit: DefaultMaxRecord}, scratch: make([]byte, goReadBuf)}
		for i := 0; i < 2; i++ { // the buffer reaches its working size
			if _, err := f.next(); err != nil {
				t.Fatal(err)
			}
		}
		first := &f.rec[:1][0]

		allocs := testing.AllocsPerRun(80, func() {
			rec, err := f.next()
			if err != nil || !bytes.Equal(rec, msg) {
				t.Fatalf("record of %d bytes, err %v", len(rec), err)
			}
			if &rec[0] != first {
				t.Fatal("the assembler abandoned the reusable buffer")
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state assembly of %d-byte records allocates %.1f times per message", size, allocs)
		}
	}
}

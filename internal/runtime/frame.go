package runtime

import (
	"context"
	"sync"
)

// A Frame is the working state of one served call: the request
// decoder, the reply staging encoder a session server needs, and the
// Call the work function sees, its slices sized once for the widest
// operation met. Whoever serialises calls owns a frame and reuses it —
// shmring.Bound under its mutex, its doorbell goroutine — the way
// Client's serial mode owns its encoder and decoder. Every other path
// (Dispatcher.ServeMessage*, SessionServer, the same-domain program,
// Plan.AcquireDecoder) borrows one from the package's one pool for the
// length of a call.
//
// A frame is cleared on every return: between calls it references no
// request, reply, user buffer, AfterReply func or context. It is not
// safe for concurrent use.
type Frame struct {
	// Decoder is the request decoder, embedded so AcquireDecoder can
	// lend the frame itself as the Decoder and get it back in
	// ReleaseDecoder.
	Decoder
	limit uint32 // the decode bound last set on Decoder

	codec Codec // what Decoder and enc were built for
	enc   Encoder
	call  Call
	busy  bool // between begin and end; still set at the next begin, a panic escaped the call

	// The storage behind call's slices. begin points the Call at it; the
	// same-domain program points the Call at the caller's arguments and
	// its bind-time vectors instead, and uses only what it must fill.
	in        []Value
	inBytes   [][]byte
	inPrivate []bool
	outs      []Value
	outBufs   [][]byte
}

// NewFrame returns a frame for an owner that serialises its calls.
func NewFrame() *Frame { return &Frame{} }

// frames is the one pool of marshal working state on the serving side.
var frames = sync.Pool{New: func() any { return NewFrame() }}

// acquireFrame borrows a frame from the pool. Every user clears what it
// set before the frames.Put that returns it: serve ends its call on
// every return, and the same-domain program releases its own.
func acquireFrame() *Frame { return frames.Get().(*Frame) }

// ServeMessage is Dispatcher.ServeMessage on a frame the caller owns:
// no pool is touched.
func (f *Frame) ServeMessage(d *Dispatcher, plan *Plan, opIdx int, body []byte, enc Encoder) {
	d.serve(nil, f, plan, opIdx, body, enc, 0, true)
}

// ServeMessageRawContext is Dispatcher.ServeMessageRaw on a frame the
// caller owns, under the caller's dispatch context: work functions
// observe it through Call.Context. ctx may be nil.
func (f *Frame) ServeMessageRawContext(ctx context.Context, d *Dispatcher, plan *Plan, opIdx int, body []byte, enc Encoder) error {
	return d.serve(ctx, f, plan, opIdx, body, enc, 0, false)
}

// use drops codec-specific state built for another codec: pooled
// frames serve whichever plan asks next.
func (f *Frame) use(c Codec) {
	if f.codec != c {
		f.Decoder, f.enc, f.codec = nil, nil, c
	}
}

// decoder aims the frame's decoder at body under p's decode bound,
// building it on first use.
func (f *Frame) decoder(p *Plan, body []byte) Decoder {
	f.use(p.Codec)
	if f.Decoder == nil {
		f.Decoder, f.limit = p.NewDecoder(body), p.maxDecode
		return f.Decoder
	}
	f.Decoder.Reset(body)
	if f.limit != p.maxDecode {
		f.Decoder.SetMaxLength(p.maxDecode)
		f.limit = p.maxDecode
	}
	return f.Decoder
}

// encoder returns the frame's staging encoder, empty.
func (f *Frame) encoder(p *Plan) Encoder {
	f.use(p.Codec)
	if f.enc == nil {
		f.enc = p.Codec.NewEncoder()
	}
	f.enc.Reset()
	return f.enc
}

// begin prepares the frame's Call for operation opIdx of d: handler
// slot, operation presentation and slice lengths all come from d's
// index tables.
func (f *Frame) begin(ctx context.Context, d *Dispatcher, opIdx int) *Call {
	if f.busy {
		f.end()
	}
	f.busy = true
	c := &f.call
	c.Op, c.idx, c.opPres, c.ctx = &d.Pres.Interface.Ops[opIdx], opIdx, d.opPres[opIdx], ctx
	n := len(c.Op.Params)
	f.reserve(n)
	c.in, c.inBytes, c.inPrivate, c.outs, c.outBufs = f.in[:n], f.inBytes[:n], f.inPrivate[:n], f.outs[:n], f.outBufs[:n]
	return c
}

// reserve makes the frame's storage hold n parameters.
func (f *Frame) reserve(n int) {
	if cap(f.in) < n {
		f.in = make([]Value, n)
		f.inBytes = make([][]byte, n)
		f.inPrivate = make([]bool, n)
		f.outs = make([]Value, n)
		f.outBufs = make([][]byte, n)
	}
}

// end drops every reference the call left in the frame.
func (f *Frame) end() {
	c := &f.call
	for i := range c.in {
		c.in[i] = nil
		c.inBytes[i] = nil
		c.inPrivate[i] = false
		c.outs[i] = nil
		c.outBufs[i] = nil
	}
	for i := range c.afterReply {
		c.afterReply[i] = nil
	}
	c.afterReply = c.afterReply[:0]
	c.Op, c.opPres, c.ret, c.retBuf, c.ctx = nil, nil, nil, nil, nil
	if f.Decoder != nil {
		f.Decoder.Reset(nil)
	}
	f.busy = false
}

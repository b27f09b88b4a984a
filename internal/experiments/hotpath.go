package experiments

import (
	"math"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	frt "flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/transport/inproc"
	"flexrpc/internal/transport/shmring"
)

// The two hot-path figures: rows are per-operation costs in benchmark
// units — ns/op, B/op, allocs/op — plus, where a row turns them on, the
// runtime's own copy and allocation meters.

var hotPathColumns = []Column{
	{Name: "ns/op", Unit: "ns", Format: "%.1f"},
	{Name: "B/op", Unit: "B", Format: "%.1f"},
	{Name: "allocs/op", Unit: "count", Format: "%.1f"},
	{Name: "copied B/op", Unit: "B", Format: "%.1f"},
	{Name: "alloced B/op", Unit: "B", Format: "%.1f"},
}

// A hotPath is one assembled row. meter, when the row has meters,
// switches them on and returns the endpoint they report to.
type hotPath struct {
	op      func() error
	meter   func() *stats.Endpoint
	closeFn func()
}

// hotPathSystems names the rows' operations for BenchmarkFig.
func hotPathSystems(bytes int64, names []string, assemble func(i int) (hotPath, error)) []System {
	return systems(bytes, names, func(i int) Build {
		return func() (func() error, func(), error) {
			h, err := assemble(i)
			return h.op, h.closeFn, err
		}
	})
}

// hotPathFigure times every row, then runs a second, metered pass over
// the rows with meters to fill the copy/alloc columns: the timed pass
// stays unmetered so ns/op carries no stats overhead.
func hotPathFigure(labels []string, assemble func(i int) (hotPath, error)) func(Size) (*Result, error) {
	return func(s Size) (*Result, error) {
		iters := pick(s, 200000, 20000, 2000)
		res := &Result{}
		for i, label := range labels {
			h, err := assemble(i)
			if err != nil {
				return nil, err
			}
			c, err := timeOps(h.op, iters, nil)
			copied, alloced := math.NaN(), math.NaN()
			if err == nil && h.meter != nil {
				const meterIters = 1000
				e := h.meter()
				for n := 0; n < meterIters && err == nil; n++ {
					err = h.op()
				}
				snap := e.Snapshot()
				copied, alloced = float64(snap.Copy.Bytes)/meterIters, float64(snap.Alloc.Bytes)/meterIters
			}
			h.closeFn()
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Row{Label: label, Cells: []float64{c.ns, c.bytes, c.allocs, copied, alloced}})
		}
		return res, nil
	}
}

// Marshal experiment: the interpreted marshal plans on a full 1 KB
// echo round trip under both codecs: request encode, the server's
// borrow-mode request decode (zero-copy, which the copy meter
// witnesses), reply encode, and the client's own-storage reply decode
// (where the one landing-buffer allocation and copy happen).

var (
	marshalCodecs = []frt.Codec{frt.XDRCodec, frt.CDRCodec}
	marshalLabels = []string{"xdr", "cdr"}
)

func newEchoRoundTrip(i int) (hotPath, error) {
	codec := marshalCodecs[i]
	compiled, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "m.idl",
		Source: `interface M { sequence<octet> echo(in sequence<octet> data); };`,
	})
	if err != nil {
		return hotPath{}, err
	}
	plan, err := frt.NewPlan(compiled.Pres, codec, nil)
	if err != nil {
		return hotPath{}, err
	}
	op := plan.Ops[0]
	enc, renc := codec.NewEncoder(), codec.NewEncoder()
	args := []frt.Value{make([]byte, paramSize)}
	return hotPath{
		op: func() error {
			enc.Reset()
			if err := op.EncodeRequest(enc, args); err != nil {
				return err
			}
			in, err := op.DecodeRequest(codec.NewDecoder(enc.Bytes()))
			if err != nil {
				return err
			}
			renc.Reset()
			if err := op.EncodeReply(renc, nil, in[0]); err != nil {
				return err
			}
			_, _, err = op.DecodeReply(codec.NewDecoder(renc.Bytes()), nil, nil)
			return err
		},
		meter: func() *stats.Endpoint {
			e := stats.New([]string{"echo"})
			plan.SetStats(e)
			return e
		},
		closeFn: func() {},
	}, nil
}

var figMarshal = &Figure{
	Name:    "marshal",
	Title:   "Marshal: interpreted plan, 1KB echo round trip per codec",
	Columns: hotPathColumns,
	Run:     hotPathFigure(marshalLabels, newEchoRoundTrip),
	Claims: []Claim{
		rowCount("both codecs", 2),
		// Borrow decode on the server, one owned landing buffer on the
		// client: the payload is copied and allocated exactly once.
		everyRow("an echo copies and allocates its payload exactly once", anyRow, "==", paramSize, "copied B/op", "alloced B/op"),
	},
	Systems: hotPathSystems(paramSize, marshalLabels, newEchoRoundTrip),
}

// Shm experiment: the zero-copy shared-memory transport. Marshal
// plans encode directly into fbuf-backed ring slots and a doorbell
// word hands the slot to the peer, so the figure compares the
// bind-time specialized paths against the channel-rendezvous inproc
// transport: a null RPC through the inline and doorbell paths (with
// and without trust) and a 1 KB [trusted] put whose payload is
// produced into the leased slot's arena and borrow-decoded in place —
// the copy meter column must read zero for that row.

// shmMode is one row: which transport, at what trust, doing what.
type shmMode struct {
	label    string
	ring     bool // shmring; false is the inproc baseline
	trust    pres.Trust
	doorbell bool // force the ring handoff mutual trust would inline
	put      bool // the metered 1 KB put instead of the null call
}

var shmModes = []shmMode{
	// Baseline: encode into a heap record, channel rendezvous, decode.
	{label: "inproc null"},
	// The ring's null RPC under each bind-time specialization.
	{label: "shm inline null", ring: true, trust: pres.TrustFull},
	{label: "shm doorbell null", ring: true, trust: pres.TrustFull, doorbell: true},
	{label: "shm doorbell untrusted null", ring: true, trust: pres.TrustNone, doorbell: true},
	// The payload is encoded straight into the leased request slot and
	// the server borrow-decodes it in place.
	{label: "shm put 1KB trusted", ring: true, trust: pres.TrustFull, doorbell: true, put: true},
}

var shmLabels = []string{shmModes[0].label, shmModes[1].label, shmModes[2].label, shmModes[3].label, shmModes[4].label}

func newShmSystem(i int) (hotPath, error) {
	m := shmModes[i]
	compiled, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "shm.idl",
		Source: `interface Shm { void nop(); void put(in sequence<octet> data); };`,
	})
	if err != nil {
		return hotPath{}, err
	}
	cp, sp := compiled.DefaultPres(pres.StyleCORBA), compiled.DefaultPres(pres.StyleCORBA)
	cp.Trust, sp.Trust = m.trust, m.trust
	disp := frt.NewDispatcher(sp)
	disp.Handle("nop", nopHandler)
	var sink byte
	disp.Handle("put", func(c *frt.Call) error {
		sink ^= c.ArgBytes(0)[0]
		return nil
	})
	name, args := "nop", []frt.Value(nil)
	if m.put {
		name, args = "put", []frt.Value{make([]byte, paramSize)}
	}
	var invoker interface {
		Invoke(string, []frt.Value, [][]byte, []byte) ([]frt.Value, frt.Value, error)
	}
	h := hotPath{closeFn: func() {}}
	if m.ring {
		b, err := shmring.Connect(cp, disp, frt.XDRCodec, shmring.Options{ForceDoorbell: m.doorbell})
		if err != nil {
			return hotPath{}, err
		}
		invoker, h.closeFn = b, func() { _ = b.Close() }
		if m.put {
			h.meter = func() *stats.Endpoint {
				e := b.EnableStats()
				b.ServerPlan().SetStats(e)
				disp.SetStats(e)
				return e
			}
		}
	} else if invoker, err = inproc.Connect(cp, disp); err != nil {
		return hotPath{}, err
	}
	h.op = func() error {
		_, _, err := invoker.Invoke(name, args, nil, nil)
		return err
	}
	return h, nil
}

var figShm = &Figure{
	Name:    "shm",
	Title:   "Shm: same-domain RPC over fbuf-backed ring slots with doorbell handoff",
	Columns: hotPathColumns,
	Run:     hotPathFigure(shmLabels, newShmSystem),
	Claims: []Claim{
		rowCount("the inproc baseline and four ring modes", len(shmModes)),
		bound("the trusted 1KB put copies nothing: the slot-arena borrow path", "==", 0,
			ref{shmModes[4].label, "copied B/op"}),
	},
	Systems: hotPathSystems(0, shmLabels, newShmSystem),
}

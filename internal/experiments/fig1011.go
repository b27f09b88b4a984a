package experiments

import (
	"sync/atomic"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	frt "flexrpc/internal/runtime"
	"flexrpc/internal/transport/inproc"
)

// The same-domain experiments of §4.4: a 1 KB parameter crosses a
// same-domain RPC under three RPC systems — two fixed presentations
// and the flexible one — for every combination of endpoint
// requirements.

// paramSize is the paper's 1 KB parameter.
const paramSize = 1024

// glueTimer accumulates time spent in manually written adaptation
// code — the lined segments of the paper's bars. A nil timer runs the
// glue untimed, which is how the benchmarks drive these systems.
type glueTimer struct {
	nanos atomic.Int64
}

func (g *glueTimer) time(fn func()) {
	if g == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	g.nanos.Add(time.Since(t0).Nanoseconds())
}

// semGrid is the shape Figures 10 and 11 share: bar groups (endpoint
// requirements) × RPC systems, each cell one assembled connection.
type semGrid struct {
	groups  []string
	systems []string // row labels
	build   func(group, system int, glue *glueTimer) (op func() error, err error)
}

var semColumns = []Column{
	{Name: "ns/call", Unit: "ns", Format: "%.1f"},
	{Name: "glue ns", Unit: "ns", Format: "%.1f"},
	{Name: "stub ns", Unit: "ns", Format: "%.1f"},
	{Name: "allocs/call", Unit: "count", Format: "%.1f", Hidden: true},
	{Name: "B/call", Unit: "B", Format: "%.1f", Hidden: true},
}

func (sg semGrid) run(s Size) (*Result, error) {
	defer uniprocessor()()
	iters := pick(s, 20000, 3000, 1500)
	res := &Result{}
	for g, group := range sg.groups {
		for sys, label := range sg.systems {
			glue := &glueTimer{}
			c, err := timeSystem(sg.system(g, sys, glue), iters, func() { glue.nanos.Store(0) })
			if err != nil {
				return nil, err
			}
			glueNs := float64(glue.nanos.Load()) / float64(iters)
			res.Rows = append(res.Rows, Row{Group: group, Label: label,
				Cells: []float64{c.ns, glueNs, c.ns - glueNs, c.allocs, c.bytes}})
		}
	}
	return res, nil
}

// system is the Build of one cell; the benchmarks pass a nil glue.
func (sg semGrid) system(group, system int, glue *glueTimer) Build {
	return func() (func() error, func(), error) {
		op, err := sg.build(group, system, glue)
		return op, func() {}, err
	}
}

// cell names one cell of a group × system row.
func (sg semGrid) cell(group, system int, col string) ref {
	return ref{Row{Group: sg.groups[group], Label: sg.systems[system]}.Name(), col}
}

// glue is bound over one system's glue column in the listed groups.
func (sg semGrid) glue(name, op string, system int, groups ...int) Claim {
	refs := make([]ref, len(groups))
	for i, g := range groups {
		refs[i] = sg.cell(g, system, "glue ns")
	}
	return bound(name, op, 0, refs...)
}

// Figure 10 (§4.4.1): copy versus borrow semantics for in parameters.
// Groups are endpoint requirements: does the client permit trashing,
// does the server modify in place.
var mutGroups = []struct {
	name                          string
	clientTrashOK, serverModifies bool
}{
	{"client normal / server reads", false, false},
	{"client trashable-ok / server reads", true, false},
	{"client normal / server modifies", false, true},
	{"client trashable-ok / server modifies", true, true},
}

const (
	mutFixedCopy = iota
	mutFixedBorrow
	mutFlexible
)

var fig10Grid = semGrid{
	groups:  []string{mutGroups[0].name, mutGroups[1].name, mutGroups[2].name, mutGroups[3].name},
	systems: []string{"fixed copy semantics", "fixed borrow semantics", "flexible presentation"},
	build:   newMutSystem,
}

func newMutSystem(group, system int, glue *glueTimer) (func() error, error) {
	compiled, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "mut.idl",
		Source: `interface Mut { void put(in sequence<octet> data); };`,
	})
	if err != nil {
		return nil, err
	}
	g := mutGroups[group]
	cp, sp := compiled.DefaultPres(pres.StyleCORBA), compiled.DefaultPres(pres.StyleCORBA)
	switch system {
	case mutFixedCopy:
		// Neither side can express anything: the stub always copies.
	case mutFixedBorrow:
		// The system forbids servers from modifying in params: the stub
		// behaves as if every server declared [preserved]; a modifying
		// server must copy manually.
		sp.Op("put").Param("data").Preserved = true
	case mutFlexible:
		cp.Op("put").Param("data").Trashable = g.clientTrashOK
		sp.Op("put").Param("data").Preserved = !g.serverModifies
	}
	disp := frt.NewDispatcher(sp)
	scratch := make([]byte, paramSize)
	disp.Handle("put", func(c *frt.Call) error {
		buf := c.ArgBytes(0)
		if !g.serverModifies {
			_ = buf[len(buf)-1] // read it
			return nil
		}
		if !c.ArgPrivate(0) {
			// Fixed borrow semantics force the server to make its own
			// copy before modifying — the paper's manual glue.
			glue.time(func() {
				copy(scratch, buf)
				buf = scratch
			})
		}
		buf[0] ^= 0xFF // modify in place
		return nil
	})
	conn, err := inproc.Connect(cp, disp)
	if err != nil {
		return nil, err
	}
	args := []frt.Value{make([]byte, paramSize)}
	return func() error {
		_, _, err := conn.Invoke("put", args, nil, nil)
		return err
	}, nil
}

var fig10 = &Figure{
	Name:    "10",
	Title:   "Figure 10: copy vs borrow semantics, same-domain 1KB in param (paper §4.4.1)",
	Note:    "paper: flexible matches the best fixed system in every group and needs no glue",
	Columns: semColumns,
	Run:     fig10Grid.run,
	Claims: []Claim{ // groups by index into mutGroups
		rowCount("four requirement groups x three systems", 12),
		fig10Grid.glue("flexible never needs glue", "==", mutFlexible, 0, 1, 2, 3),
		// Fixed borrow forces server glue exactly when the server
		// modifies.
		fig10Grid.glue("fixed borrow pays glue when the server modifies", ">", mutFixedBorrow, 2, 3),
		fig10Grid.glue("fixed borrow pays no glue when the server only reads", "==", mutFixedBorrow, 0, 1),
		// In the fully-relaxed group, flexible must beat fixed copy by a
		// clear margin (it eliminates the 1KB copy).
		cmp("fully relaxed: flexible is at most 0.9x fixed copy",
			fig10Grid.cell(3, mutFlexible, "ns/call"), "<=", 0.9, fig10Grid.cell(3, mutFixedCopy, "ns/call")),
	},
	// The fully relaxed group, where flexible presentation wins outright.
	Systems: systems(paramSize, fig10Grid.systems, func(i int) Build { return fig10Grid.system(3, i, nil) }),
}

// Figure 11 (§4.4.2): allocation semantics for out parameters. Groups:
// which side insists on providing the buffer.
var allocGroups = []struct {
	name           string
	clientProvides bool // client wants the data in its own buffer
	serverProvides bool // server has the data pre-allocated
}{
	{"neither side cares", false, false},
	{"server provides the buffer", false, true},
	{"client provides the buffer", true, false},
	{"both insist on their own buffer", true, true},
}

const (
	allocFixedCORBA = iota // fixed callee-allocates (CORBA/COM)
	allocFixedMIG          // fixed caller-allocates (MIG)
	allocFlexible
)

var fig11Grid = semGrid{
	groups:  []string{allocGroups[0].name, allocGroups[1].name, allocGroups[2].name, allocGroups[3].name},
	systems: []string{"fixed callee-alloc (CORBA/COM)", "fixed caller-alloc (MIG)", "flexible presentation"},
	build:   newAllocSystem,
}

func newAllocSystem(group, system int, glue *glueTimer) (func() error, error) {
	compiled, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA, Filename: "alloc.idl",
		Source: `interface Alloc { sequence<octet> fetch(in unsigned long n); };`,
	})
	if err != nil {
		return nil, err
	}
	g := allocGroups[group]
	style := pres.StyleCORBA
	if system == allocFixedMIG {
		style = pres.StyleMIG
	}
	cp, sp := compiled.DefaultPres(style), compiled.DefaultPres(style)
	if system == allocFlexible {
		ca, sa := cp.Op("fetch").Result(), sp.Op("fetch").Result()
		ca.Alloc = pres.AllocAuto
		if g.clientProvides {
			ca.Alloc = pres.AllocCaller
		}
		sa.Alloc, sa.Dealloc = pres.AllocCaller, pres.DeallocDefault // defer: fill what's given
		if g.serverProvides {
			sa.Alloc, sa.Dealloc = pres.AllocCallee, pres.DeallocNever
		}
	}

	// The server's pre-existing data (for server-provides groups).
	retained := make([]byte, paramSize)
	for i := range retained {
		retained[i] = byte(i * 3)
	}
	disp := frt.NewDispatcher(sp)
	disp.Handle("fetch", func(c *frt.Call) error {
		n := int(c.Arg(0).(uint32))
		if buf := c.ResultBuffer(); buf != nil {
			// Caller-provided buffer reached the server.
			if g.serverProvides {
				// MIG-style mismatch: the pre-existing data must be
				// copied into the provided buffer.
				glue.time(func() { copy(buf, retained[:n]) })
			} else {
				produce(buf[:n]) // natural: fill in place
			}
			c.SetOut(0, nil)
			c.SetResult(buf[:n])
			return nil
		}
		if !g.serverProvides {
			// No constraints: produce into a fresh buffer.
			out := make([]byte, n)
			produce(out)
			c.SetResult(out)
			return nil
		}
		if c.ResultMoved() {
			// CORBA-style mismatch: the stub will take the buffer, so
			// donate a fresh copy.
			out := make([]byte, n)
			glue.time(func() { copy(out, retained[:n]) })
			c.SetResult(out)
			return nil
		}
		// Flexible: hand over the retained buffer itself.
		c.SetResult(retained[:n])
		return nil
	})
	conn, err := inproc.Connect(cp, disp)
	if err != nil {
		return nil, err
	}

	clientBuf := make([]byte, paramSize)
	args := []frt.Value{uint32(paramSize)}
	return func() error {
		var retBuf []byte
		switch {
		case g.clientProvides:
			// The client's requirement implies it owns a long-lived
			// buffer; every system reuses it.
			retBuf = clientBuf
		case system == allocFixedMIG:
			// MIG demands a caller buffer the client has no further use
			// for: conjure one per call.
			retBuf = make([]byte, paramSize)
		}
		_, ret, err := conn.Invoke("fetch", args, nil, retBuf)
		if err != nil {
			return err
		}
		if system == allocFixedCORBA && g.clientProvides {
			// CORBA returned a donated buffer but the client wants the
			// data in its own: manual copy (and conceptual free of the
			// donation).
			glue.time(func() { copy(clientBuf, ret.([]byte)) })
		}
		return nil
	}, nil
}

// produce fills buf, standing in for the server generating the data.
func produce(buf []byte) {
	for i := 0; i < len(buf); i += 64 {
		buf[i] = byte(i)
	}
}

var fig11 = &Figure{
	Name:    "11",
	Title:   "Figure 11: allocation semantics, same-domain 1KB out param (paper §4.4.2)",
	Note:    "paper: flexible minimizes copying and eliminates glue; fixed systems are terrible when mismatched",
	Columns: semColumns,
	Run:     fig11Grid.run,
	Claims: []Claim{ // groups by index into allocGroups
		rowCount("four requirement groups x three systems", 12),
		fig11Grid.glue("flexible never needs glue", "==", allocFlexible, 0, 1, 2, 3),
		// Mismatched fixed systems pay glue; flexible does not.
		fig11Grid.glue("CORBA pays glue when either side provides the buffer", ">", allocFixedCORBA, 1, 2),
		fig11Grid.glue("MIG pays glue when the server provides the buffer", ">", allocFixedMIG, 1),
		fig11Grid.glue("MIG with a providing client is its happy path", "==", allocFixedMIG, 2),
		// Flexible wins the server-provides group outright (reference
		// pass vs copy).
		cmp("server provides: flexible is at most 0.9x CORBA",
			fig11Grid.cell(1, allocFlexible, "ns/call"), "<=", 0.9, fig11Grid.cell(1, allocFixedCORBA, "ns/call")),
	},
	// The server-provides group, where flexible passes the retained
	// buffer by reference while both fixed systems copy.
	Systems: systems(paramSize, fig11Grid.systems, func(i int) Build { return fig11Grid.system(1, i, nil) }),
}

package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"flexrpc/internal/bsdpipe"
	"flexrpc/internal/fbuf"
	"flexrpc/internal/mach"
	"flexrpc/internal/pipeserver"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/fbufrpc"
	"flexrpc/internal/transport/machipc"
)

// The pipe experiments of §4.2-4.3: a writer and a reader push bytes
// through a pipe server whose presentation is the only thing that
// varies. Each call moves half the pipe buffer, so larger pipes carry
// proportionally larger transfers as a real pipe workload would.

// A pipe is one assembled pipe configuration seen from its two client
// programs.
type pipe struct {
	write      func([]byte) error
	read       func(max int) (int, error)
	closeWrite func() error
	destroy    func()
}

// pipeMode is one bar of Figures 6 and 7: a label and how to assemble
// the pipe for a given buffer size and per-call chunk.
type pipeMode struct {
	label string
	build func(pipeSize, chunk int) (*pipe, error)
}

var (
	fig6Modes = []pipeMode{
		{"default presentation", func(size, _ int) (*pipe, error) { return newMachPipe(size, "") }},
		{"[dealloc(never)] presentation", func(size, _ int) (*pipe, error) { return newMachPipe(size, pipeserver.Figure5PDL) }},
	}
	fig7Modes = []pipeMode{
		{"standard presentation over fbufs", func(size, _ int) (*pipe, error) { return newFbufStandardPipe(size) }},
		{"[special] presentation over fbufs", newFbufSpecialPipe},
	}
	bsdMode = pipeMode{"monolithic 4.3BSD pipe (reference)", func(_, chunk int) (*pipe, error) { return newBSDPipe(chunk), nil }}
)

// newMachPipe assembles the basic pipe server over the streamlined IPC
// path, its server presentation refined by serverPDL when given.
func newMachPipe(pipeSize int, serverPDL string) (*pipe, error) {
	compiled, err := pipeserver.Compile()
	if err != nil {
		return nil, err
	}
	serverPres := compiled.Pres
	if serverPDL != "" {
		sc, err := compiled.WithPDL("server.pdl", serverPDL)
		if err != nil {
			return nil, err
		}
		serverPres = sc.Pres
	}
	srv, err := pipeserver.NewServer(pipeSize, serverPres)
	if err != nil {
		return nil, err
	}
	k := mach.NewKernel()
	serverTask := k.NewTask("pipe-server")
	_, port := serverTask.AllocatePort()
	srv.ServeMach(serverTask, port, 2)

	writerTask := k.NewTask("writer")
	readerTask := k.NewTask("reader")
	w, err := pipeserver.NewMachClient(writerTask, writerTask.InsertRight(port), compiled.DefaultPres(pres.StyleCORBA))
	if err != nil {
		port.Destroy()
		return nil, err
	}
	r, err := pipeserver.NewMachClient(readerTask, readerTask.InsertRight(port), compiled.DefaultPres(pres.StyleCORBA))
	if err != nil {
		port.Destroy()
		return nil, err
	}
	return clientPipe(w, r, port.Destroy), nil
}

// clientPipe wraps a writer and a reader pipeserver client.
func clientPipe(w, r *pipeserver.Client, destroy func()) *pipe {
	return &pipe{
		write: w.Write,
		read: func(max int) (int, error) {
			b, err := r.Read(max)
			return len(b), err
		},
		closeWrite: w.CloseWrite,
		destroy:    destroy,
	}
}

// newFbufStandardPipe runs the pipe server with a standard
// presentation over the transparent fbuf transport: two pairwise
// LRPC-like channels (writer-server and reader-server).
func newFbufStandardPipe(pipeSize int) (*pipe, error) {
	compiled, err := pipeserver.Compile()
	if err != nil {
		return nil, err
	}
	srv, err := pipeserver.NewServer(pipeSize, compiled.Pres)
	if err != nil {
		return nil, err
	}
	k := mach.NewKernel()
	serverTask := k.NewTask("pipe-server")
	serverDom := fbuf.NewDomain("pipe-server")

	var ports []*mach.Port
	destroy := func() {
		for _, p := range ports {
			p.Destroy()
		}
	}
	mkClient := func(name string) (*pipeserver.Client, error) {
		task := k.NewTask(name)
		ch := fbufrpc.NewChannel(
			fbufrpc.Endpoint{Task: task, Domain: fbuf.NewDomain(name)},
			fbufrpc.Endpoint{Task: serverTask, Domain: serverDom},
			64<<10, 8)
		_, port := serverTask.AllocatePort()
		ports = append(ports, port)
		// Register the server signature before any client can dial.
		machipc.Announce(port, srv.Disp.Pres)
		// Two workers per channel: a blocked write handler must not
		// stall the channel.
		for i := 0; i < 2; i++ {
			go func() { _ = fbufrpc.Serve(ch, port, srv.Disp, runtime.XDRCodec) }()
		}
		conn, err := fbufrpc.Dial(ch, task.InsertRight(port), compiled.DefaultPres(pres.StyleCORBA))
		if err != nil {
			return nil, err
		}
		client, err := runtime.NewClient(compiled.DefaultPres(pres.StyleCORBA), runtime.XDRCodec, conn, nil)
		if err != nil {
			return nil, err
		}
		return pipeserver.NewClientOver(client), nil
	}
	w, err := mkClient("writer")
	if err != nil {
		destroy()
		return nil, err
	}
	r, err := mkClient("reader")
	if err != nil {
		destroy()
		return nil, err
	}
	return clientPipe(w, r, destroy), nil
}

// newFbufSpecialPipe runs the [special]-presentation pipe server: one
// three-domain path, data staying in fbufs through the server.
func newFbufSpecialPipe(pipeSize, chunk int) (*pipe, error) {
	fp, err := pipeserver.StartFbufPipe(pipeserver.FbufPipeConfig{
		Kernel:   mach.NewKernel(),
		PipeSize: pipeSize,
		BufSize:  chunk,
		PoolSize: pipeSize/chunk*2 + 16,
	})
	if err != nil {
		return nil, err
	}
	readBuf := make([]byte, chunk)
	return &pipe{
		write:      fp.Writer.Write,
		read:       func(max int) (int, error) { return fp.Reader.Read(readBuf[:max]) },
		closeWrite: fp.Writer.CloseWrite,
		destroy:    fp.Port.Destroy,
	}, nil
}

// newBSDPipe is the monolithic reference pipe.
func newBSDPipe(chunk int) *pipe {
	p := bsdpipe.New()
	readBuf := make([]byte, chunk)
	return &pipe{
		write: func(b []byte) error {
			_, err := p.Write(b)
			return err
		},
		read: func(max int) (int, error) { return p.Read(readBuf[:max]) },
		closeWrite: func() error {
			p.CloseWrite()
			return nil
		},
		destroy: func() {},
	}
}

// pump runs the writer and reader programs concurrently until total
// bytes have crossed the pipe, and returns the elapsed time.
func (p *pipe) pump(total, chunkSize int) (time.Duration, error) {
	chunk := make([]byte, chunkSize)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 0; off < total; off += chunkSize {
			if err := p.write(chunk); err != nil {
				werr = err
				return
			}
		}
		werr = p.closeWrite()
	}()
	got := 0
	for {
		n, err := p.read(chunkSize)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		got += n
	}
	wg.Wait()
	if werr != nil {
		return 0, werr
	}
	if got != total {
		return 0, fmt.Errorf("pipe delivered %d bytes, want %d", got, total)
	}
	return time.Since(start), nil
}

var pipeColumns = []Column{
	{Name: "pipe buf", Unit: "KiB", Format: "%.0fK"},
	{Name: "MB/s", Unit: "MB/s", Format: "%.1f"},
}

// pipeSizes are the pipe buffers a run measures: the paper's 4K and
// 8K, the smoke run only the first.
func pipeSizes(s Size) []int { return pick(s, []int{4096, 8192}, []int{4096, 8192}, []int{4096}) }

// pipeRows measures the modes at one pipe size: the best of trials
// freshly assembled pipes each carrying total bytes. The trials of the
// modes are interleaved, so a burst of host noise lands on all of them
// rather than on every trial of one — the claims compare modes.
func pipeRows(modes []pipeMode, pipeSize, total, trials int) ([]Row, error) {
	chunk := pipeSize / 2
	best := make([]time.Duration, len(modes))
	for trial := 0; trial < trials; trial++ {
		for i, m := range modes {
			p, err := m.build(pipeSize, chunk)
			if err != nil {
				return nil, err
			}
			d, err := p.pump(total, chunk)
			p.destroy()
			if err != nil {
				return nil, err
			}
			if trial == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	rows := make([]Row, len(modes))
	for i, m := range modes {
		rows[i] = Row{Label: m.label, Cells: []float64{float64(pipeSize) / 1024, mbps(total, best[i])}}
	}
	return rows, nil
}

// pipeFigure runs every mode at every pipe size, then the reference
// modes at the BSD pipe's own buffer size.
func pipeFigure(modes []pipeMode, reference ...pipeMode) func(Size) (*Result, error) {
	return func(s Size) (*Result, error) {
		total := pick(s, 4<<20, 2<<20, 2<<20)
		// A short transfer is over in a millisecond, where one unlucky
		// goroutine placement is the whole trial: the small runs buy
		// their stability with more trials, not longer ones.
		trials := pick(s, Trials, 2*Trials, 2*Trials)
		res := &Result{}
		for _, size := range pipeSizes(s) {
			rows, err := pipeRows(modes, size, total, trials)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, rows...)
		}
		rows, err := pipeRows(reference, bsdpipe.BufferSize, total, trials)
		res.Rows = append(res.Rows, rows...)
		return res, err
	}
}

// pipeSystems is one 2 KB chunk written and read back through each
// mode at each pipe size.
func pipeSystems(modes []pipeMode) []System {
	const chunk = 2048
	var out []System
	for _, size := range pipeSizes(Full) {
		for _, m := range modes {
			out = append(out, System{Name: fmt.Sprintf("%dK/%s", size/1024, m.label), Bytes: chunk,
				New: func() (func() error, func(), error) {
					p, err := m.build(size, chunk)
					if err != nil {
						return nil, nil, err
					}
					data := make([]byte, chunk)
					return func() error {
						if err := p.write(data); err != nil {
							return err
						}
						_, err := p.read(chunk)
						return err
					}, p.destroy, nil
				}})
		}
	}
	return out
}

// pairwise claims, at every pipe size, "second mode op factor × first
// mode" in MB/s. Rows at different sizes share labels, so the pairs are
// taken by position: the two modes alternate within a size.
func pairwise(name, op string, factor float64) Claim {
	return Claim{Name: name, Check: func(r *Report) error {
		for i := 0; i+1 < 2*len(pipeSizes(r.Size)) && i+1 < len(r.Rows); i += 2 {
			a, b := r.Rows[i], r.Rows[i+1]
			if !holds(b.Cells[1], op, factor*a.Cells[1]) {
				return fmt.Errorf("%.0fK pipe: %s = %.1f MB/s, want %s %g × %s = %.1f MB/s",
					a.Cells[0], b.Label, b.Cells[1], op, factor, a.Label, a.Cells[1])
			}
		}
		return nil
	}}
}

// pipeGrid claims two mode rows per pipe size plus the reference rows.
func pipeGrid(name string, reference int) Claim {
	return Claim{Name: name, Check: func(r *Report) error {
		return rowCount(name, 2*len(pipeSizes(r.Size))+reference).Check(r)
	}}
}

var fig6 = &Figure{
	Name:    "6",
	Title:   "Figure 6: basic pipe server over streamlined IPC (paper §4.2)",
	Note:    "paper: [dealloc(never)] improves total run time 21% (4K) and 24% (8K)",
	Columns: pipeColumns,
	Run:     pipeFigure(fig6Modes),
	Claims: []Claim{
		pipeGrid("both presentations at every pipe size", 0),
		everyRow("every configuration moves data", anyRow, ">", 0, "MB/s"),
		// dealloc(never) must not lose by more than noise.
		pairwise("[dealloc(never)] is at least 0.85x the default presentation", ">=", 0.85),
	},
	Systems: pipeSystems(fig6Modes),
}

var fig7 = &Figure{
	Name:    "7",
	Title:   "Figure 7: pipe server over fbufs (paper §4.3)",
	Note:    "paper: [special] improves throughput 92% (4K) and 160% (8K); BSD pipe shown for reference",
	Columns: pipeColumns,
	Run:     pipeFigure(fig7Modes, bsdMode),
	Claims: []Claim{
		pipeGrid("both presentations at every pipe size, and the BSD reference", 1),
		// The headline claim: the [special] presentation substantially
		// outperforms the standard one (paper: +92%/+160%; demand at
		// least +30% even on a noisy box).
		pairwise("[special] is at least 1.3x the standard presentation", ">=", 1.3),
		{Name: "the in-process BSD pipe outruns cross-domain RPC", Check: func(r *Report) error {
			bsd := r.Cell(bsdMode.label, "MB/s")
			return everyRow("", func(row Row) bool { return row.Label == fig7Modes[1].label }, "<", bsd, "MB/s").Check(r)
		}},
	},
	Systems: pipeSystems(fig7Modes),
}

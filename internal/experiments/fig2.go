package experiments

import (
	"fmt"
	"time"

	"flexrpc/internal/kernbuf"
	"flexrpc/internal/netsim"
	"flexrpc/internal/nfs"
)

// The §4.1 NFS read experiment: read the whole exported file in 8 KB
// chunks through each of the four client stub variants.

// nfsVariant is one bar of Figure 2.
type nfsVariant struct {
	label         string
	special, hand bool
}

var nfsVariants = []nfsVariant{
	{"conventional, hand-coded stubs", false, true},
	{"conventional, generated stubs", false, false},
	{"user-space buffer, hand-coded stubs", true, true},
	{"user-space buffer, generated stubs", true, false},
}

// newNFSClient exports a fileSize-byte file over a link shaped by link
// and returns a client of the given variant.
func newNFSClient(v nfsVariant, fileSize int, link netsim.LinkParams) (nfs.ReadClient, func(), error) {
	srv := nfs.NewServer(fileSize)
	cc, sc := netsim.BufferedPipe(link, 64)
	srv.Start(sc)
	closeFn := func() { cc.Close() }
	if v.hand {
		return nfs.NewHandClient(cc, v.special), closeFn, nil
	}
	gc, err := nfs.NewGenClient(cc, v.special)
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	return gc, closeFn, nil
}

// nfsReadFile performs one full transfer through one variant and
// reports its total time and the client's own accounting.
func nfsReadFile(v nfsVariant, fileSize int, link netsim.LinkParams) (time.Duration, nfs.Stats, error) {
	client, closeFn, err := newNFSClient(v, fileSize, link)
	if err != nil {
		return 0, nfs.Stats{}, err
	}
	defer closeFn()
	ub := kernbuf.NewUserBuffer(fileSize)
	start := time.Now()
	for off := 0; off < fileSize; {
		n, err := client.ReadAt(ub, off, uint32(off), nfs.MaxData)
		if err != nil {
			return 0, nfs.Stats{}, fmt.Errorf("%s: %w", v.label, err)
		}
		if n == 0 {
			break
		}
		off += n
	}
	return time.Since(start), client.Stats(), nil
}

var fig2 = &Figure{
	Name:  "2",
	Title: "Figure 2: NFS 8MB read, user-space buffer presentation (paper §4.1)",
	Note:  "paper: user-space presentation cuts client processing ~13% (~3% total); hand == generated",
	Columns: []Column{
		{Name: "total ms", Unit: "ms", Format: "%.1f"},
		{Name: "net+server ms", Unit: "ms", Format: "%.1f"},
		{Name: "client ms", Unit: "ms", Format: "%.1f"},
		{Name: "client vs conv", Unit: "%", Format: "%+.0f%%"},
		{Name: "reads", Unit: "count", Format: "%.0f", Hidden: true},
		{Name: "user copies", Unit: "count", Format: "%.0f", Hidden: true},
		{Name: "kernel copies", Unit: "count", Format: "%.0f", Hidden: true},
	},
	Run: func(s Size) (*Result, error) {
		// The paper read 8 MB over Ethernet (netsim.Ethernet10 is the
		// scaled link); the smoke run keeps the copy counts and the
		// client segment but not the network-dominated total.
		fileSize := pick(s, 8<<20, 1<<20, 512<<10)
		link := pick(s, netsim.Ethernet10, netsim.Ethernet10, netsim.LinkParams{Bandwidth: 200 << 20})
		res := &Result{}
		for i, v := range nfsVariants {
			// The network-and-server segment is invariant by
			// construction; repeat the whole transfer and keep the run
			// with the least client-processing time, which is the noisy
			// segment (the paper's Jeffrey Law did "careful timings").
			var total, client, net float64 // ms
			var copies nfs.Stats
			for trial := 0; trial < Trials; trial++ {
				d, st, err := nfsReadFile(v, fileSize, link)
				if err != nil {
					return nil, err
				}
				ms := d.Seconds() * 1e3
				if c := ms - float64(st.NetServerNanos)/1e6; trial == 0 || c < client {
					total, client, net, copies = ms, c, ms-c, st
				}
			}
			// Deltas compare each user-space-buffer variant against the
			// conventional variant of the same stub family (hand against
			// hand, generated against generated), as the paper's bars
			// pair them.
			base := client
			if i >= 2 {
				base = res.Rows[i-2].Cells[2]
			}
			res.Rows = append(res.Rows, Row{Label: v.label, Cells: []float64{
				total, net, client, pctDelta(base, client), float64(fileSize / nfs.MaxData),
				float64(copies.Meter.UserCopies), float64(copies.Meter.KernelCopies),
			}})
		}
		return res, nil
	},
	Claims: func() []Claim {
		convHand, convGen, userHand, userGen := nfsVariants[0].label, nfsVariants[1].label, nfsVariants[2].label, nfsVariants[3].label
		return []Claim{
			rowCount("four stub variants", 4),
			everyRow("every segment is timed", anyRow, ">", 0, "total ms", "net+server ms", "client ms"),
			rowwise("every variant copies to user space once per read", "user copies", "==", 1, "reads"),
			// The conventional hand-coded client does one intermediate
			// kernel copy per read; the user-space one does none.
			cmp("conventional hand-coded client: one kernel copy per read",
				ref{convHand, "kernel copies"}, "==", 1, ref{convHand, "reads"}),
			bound("user-space hand-coded client: no kernel copy", "==", 0, ref{userHand, "kernel copies"}),
			// Within each stub family the user-space presentation must
			// not be slower on the client segment (wide margin).
			cmp("hand-coded: user-space client time within 1.5x of conventional",
				ref{userHand, "client ms"}, "<=", 1.5, ref{convHand, "client ms"}),
			cmp("generated: user-space client time within 1.5x of conventional",
				ref{userGen, "client ms"}, "<=", 1.5, ref{convGen, "client ms"}),
		}
	}(),
	// One 8 KB read over an unshaped link; the network-dominated
	// version is the figure itself.
	Systems: systems(nfs.MaxData, []string{nfsVariants[0].label, nfsVariants[1].label, nfsVariants[2].label, nfsVariants[3].label},
		func(i int) Build {
			return func() (func() error, func(), error) {
				client, closeFn, err := newNFSClient(nfsVariants[i], 64<<10, netsim.LinkParams{})
				if err != nil {
					return nil, nil, err
				}
				ub := kernbuf.NewUserBuffer(nfs.MaxData)
				return func() error {
					_, err := client.ReadAt(ub, 0, 0, nfs.MaxData)
					return err
				}, closeFn, nil
			}
		}),
}

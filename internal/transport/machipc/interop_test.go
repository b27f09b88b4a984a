package machipc

import (
	"bytes"
	"fmt"
	"testing"

	"flexrpc/internal/mach"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

// The paper's interoperability guarantee, tested exhaustively over a
// real message transport: any client presentation works against any
// server presentation of the same contract, delivering identical
// bytes, because presentation never reaches the wire.
func TestCrossPresentationInteropMatrix(t *testing.T) {
	clientPDLs := map[string]string{
		"default":   "",
		"trashable": `interface FileIO { write([trashable] data); };`,
		"calleralloc": `interface FileIO {
			read([alloc(caller)] return); };`,
		"trusting": `[leaky, unprotected] interface FileIO { };`,
	}
	serverPDLs := map[string]string{
		"default":      "",
		"deallocnever": `interface FileIO { read([dealloc(never)] return); };`,
		"preserved":    `interface FileIO { write([preserved] data); };`,
		"leaky":        `[leaky] interface FileIO { };`,
	}

	payload := bytes.Repeat([]byte("interop!"), 64)
	for sname, spdl := range serverPDLs {
		for cname, cpdl := range clientPDLs {
			t.Run(fmt.Sprintf("server=%s/client=%s", sname, cname), func(t *testing.T) {
				apply := func(name, src string) *pres.Presentation {
					if src == "" {
						return fileIOPres(t)
					}
					p := fileIOPres(t)
					if err := pdl.Apply(p, name, src); err != nil {
						t.Fatal(err)
					}
					return p
				}
				sp, cp := apply("s.pdl", spdl), apply("c.pdl", cpdl)

				k := mach.NewKernel()
				srvTask := k.NewTask("server")
				cliTask := k.NewTask("client")
				_, port := srvTask.AllocatePort()
				disp := runtime.NewDispatcher(sp)
				var stored []byte
				disp.Handle("write", func(c *runtime.Call) error {
					stored = append([]byte(nil), c.ArgBytes(0)...)
					return nil
				})
				disp.Handle("read", func(c *runtime.Call) error {
					n := int(c.Arg(0).(uint32))
					if n > len(stored) {
						n = len(stored)
					}
					if c.ResultMoved() {
						out := make([]byte, n)
						copy(out, stored)
						c.SetResult(out)
					} else {
						c.SetResult(stored[:n])
					}
					return nil
				})
				Announce(port, sp)
				go func() { _ = Serve(srvTask, port, disp, runtime.XDRCodec) }()
				defer port.Destroy()

				conn, err := Dial(cliTask, cliTask.InsertRight(port), cp)
				if err != nil {
					t.Fatal(err)
				}
				client, err := runtime.NewClient(cp, runtime.XDRCodec, conn, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := client.Invoke("write", []runtime.Value{payload}, nil, nil); err != nil {
					t.Fatal(err)
				}
				retBuf := make([]byte, len(payload))
				_, ret, err := client.Invoke("read", []runtime.Value{uint32(len(payload))}, nil, retBuf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ret.([]byte), payload) {
					t.Fatalf("delivered bytes differ (%d vs %d)", len(ret.([]byte)), len(payload))
				}
			})
		}
	}
}

package pipeserver

import (
	"fmt"
	"io"

	"flexrpc/internal/core"
	"flexrpc/internal/mach"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/machipc"
)

// IDL is the pipe server's interface definition — the paper's
// Figure 3 plus the close operations a real pipe needs.
const IDL = `
interface FileIO {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
    void close_write();
    void close_read();
};`

// Figure5PDL is the paper's Figure 5: the server-side presentation
// modification that stops the stub from deallocating the read
// buffer, letting the server manage its own circular-buffer space.
const Figure5PDL = `
interface FileIO {
    read([dealloc(never)] return);
};`

// Compile parses the pipe interface and returns its default (CORBA)
// compilation.
func Compile() (*core.Compiled, error) {
	return core.Compile(core.Options{
		Frontend: core.FrontendCORBA,
		Filename: "fileio.idl",
		Source:   IDL,
	})
}

// A Server provides one pipe over RPC. Its read path is chosen by
// the presentation it serves under.
type Server struct {
	Pipe *Pipe
	Disp *runtime.Dispatcher
}

// NewServer builds a pipe server with an n-byte buffer under the
// given server presentation. The work functions consult the
// presentation through the Call (ResultMoved), so the same server
// code serves both the default and the Figure 5 presentation.
func NewServer(n int, serverPres *pres.Presentation) (*Server, error) {
	s := &Server{Pipe: NewPipe(n)}
	s.Disp = runtime.NewDispatcher(serverPres)
	s.Disp.Handle("write", func(c *runtime.Call) error {
		_, err := s.Pipe.Write(c.ArgBytes(0))
		return err
	})
	s.Disp.Handle("read", func(c *runtime.Call) error {
		max := int(c.Arg(0).(uint32))
		if c.ResultMoved() {
			// Default presentation: the stub will deallocate the
			// returned buffer, so the server cannot return a pointer
			// into its circular buffer — it must allocate and copy.
			data, err := s.Pipe.ReadCopy(max)
			if err == io.EOF {
				c.SetResult([]byte{})
				return nil
			}
			if err != nil {
				return err
			}
			c.SetResult(data)
			return nil
		}
		// [dealloc(never)]: return a slice of the circular buffer
		// itself and consume after the stub marshals the reply.
		view, wrapped, err := s.Pipe.PeekZeroCopy(max)
		if err == io.EOF {
			c.SetResult([]byte{})
			return nil
		}
		if err != nil {
			return err
		}
		if wrapped {
			// The wrap-around case still copies (paper §4.2.1: "this
			// case as well could be optimized ... but we did not
			// implement this").
			data, err := s.Pipe.ReadCopy(max)
			if err != nil && err != io.EOF {
				return err
			}
			c.SetResult(data)
			return nil
		}
		n := len(view)
		c.SetResult(view)
		c.AfterReply(func() { s.Pipe.Consume(n) })
		return nil
	})
	s.Disp.Handle("close_write", func(c *runtime.Call) error {
		s.Pipe.CloseWrite()
		return nil
	})
	s.Disp.Handle("close_read", func(c *runtime.Call) error {
		s.Pipe.CloseRead()
		return nil
	})
	return s, nil
}

// ServeMach serves the pipe on port with the given number of worker
// threads. Multiple workers are required: a blocked write (full
// pipe) must not prevent reads from being served — the pipe server
// task is multi-threaded, as the original was.
func (s *Server) ServeMach(task *mach.Task, port *mach.Port, workers int) {
	machipc.Announce(port, s.Disp.Pres)
	for i := 0; i < workers; i++ {
		go func() { _ = machipc.Serve(task, port, s.Disp, runtime.XDRCodec) }()
	}
}

// A Client is one end of a pipe (reader or writer) talking to a
// pipe server.
type Client struct {
	inv runtime.Invoker
}

// NewMachClient binds a client (with its own presentation) to a pipe
// server's port over the streamlined IPC transport.
func NewMachClient(task *mach.Task, right mach.Name, clientPres *pres.Presentation) (*Client, error) {
	conn, err := machipc.Dial(task, right, clientPres)
	if err != nil {
		return nil, err
	}
	rc, err := runtime.NewClient(clientPres, runtime.XDRCodec, conn, nil)
	if err != nil {
		return nil, err
	}
	return &Client{inv: rc}, nil
}

// NewClientOver wraps any invoker (e.g. an inproc conn) as a pipe
// client.
func NewClientOver(inv runtime.Invoker) *Client { return &Client{inv: inv} }

// Write sends data down the pipe, blocking under pipe flow control.
func (c *Client) Write(data []byte) error {
	_, _, err := c.inv.Invoke("write", []runtime.Value{data}, nil, nil)
	return err
}

// Read returns up to max bytes, or io.EOF after the writer closed.
func (c *Client) Read(max int) ([]byte, error) {
	_, ret, err := c.inv.Invoke("read", []runtime.Value{uint32(max)}, nil, nil)
	if err != nil {
		return nil, err
	}
	data, ok := ret.([]byte)
	if !ok {
		return nil, fmt.Errorf("pipeserver: bad read reply %T", ret)
	}
	if len(data) == 0 {
		return nil, io.EOF
	}
	return data, nil
}

// CloseWrite signals EOF to the reader.
func (c *Client) CloseWrite() error {
	_, _, err := c.inv.Invoke("close_write", []runtime.Value{}, nil, nil)
	return err
}

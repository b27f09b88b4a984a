// Seeded FV023 violations: raw Sun RPC handlers retaining
// record-aliasing decoder slices in a package that switches the
// server to netpoll mode, next to the copies that are fine.
package fv023

import (
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/xdr"
)

var lastRecord []byte // retention target

type index struct {
	keys [][]byte
	hot  []byte
}

func Build(ix *index, sink chan []byte) *sunrpc.Server {
	s := sunrpc.NewServer(0x20049630, 1)
	s.SetNetpoll(true)
	s.Register(1, func(d *xdr.Decoder, e *xdr.Encoder) error {
		b, err := d.Opaque()
		if err != nil {
			return err
		}
		lastRecord = b // want FV023: store into global
		return nil
	})
	s.Register(2, func(d *xdr.Decoder, e *xdr.Encoder) error {
		b, err := d.FixedOpaque(16)
		if err != nil {
			return err
		}
		ix.hot = b[4:] // want FV023: store into field, through a reslice
		return nil
	})
	s.Register(3, func(d *xdr.Decoder, e *xdr.Encoder) error {
		b, err := d.Opaque()
		if err != nil {
			return err
		}
		sink <- b // want FV023: channel send
		return nil
	})
	s.Register(4, func(d *xdr.Decoder, e *xdr.Encoder) error {
		key, err := d.Opaque()
		if err != nil {
			return err
		}
		go stash(key) // want FV023: goroutine argument
		return nil
	})
	s.Register(5, indexKey(ix))
	s.Register(6, func(d *xdr.Decoder, e *xdr.Encoder) error {
		// Clean: a copy is owned storage.
		b, err := d.Opaque()
		if err != nil {
			return err
		}
		lastRecord = append([]byte(nil), b...)
		fixed, err := d.FixedOpaque(16)
		if err != nil {
			return err
		}
		ix.hot = append(make([]byte, 0, 64), fixed...)
		// Clean: the slice header never escapes; only derived values do.
		raw, err := d.Opaque()
		if err != nil {
			return err
		}
		e.PutUint32(uint32(len(raw)))
		return nil
	})
	return s
}

// declWrite is registered by name below; declared handlers are
// analyzed the same as literals.
func declWrite(d *xdr.Decoder, e *xdr.Encoder) error {
	b, err := d.Opaque()
	if err != nil {
		return err
	}
	lastRecord = b[:8] // want FV023: store into global from a declared handler
	return nil
}

func bindDecl(s *sunrpc.Server) {
	s.Register(7, declWrite)
}

func indexKey(ix *index) sunrpc.ProcHandler {
	// Not a registration-site literal, so this body is out of scope for
	// the analyzer (the conversion hides the handler); kept to pin the
	// analyzer's behavior on indirect registrations.
	return func(d *xdr.Decoder, e *xdr.Encoder) error {
		b, _ := d.Opaque()
		ix.keys[0] = b
		return nil
	}
}

func stash([]byte) {}

// Seeded FV023 violation in a package that never mentions netpoll: the
// shared pool of SetConcurrency(4), like the serial executor, returns
// the record buffer to the server the moment the handler returns.
package fv023pool

import (
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/xdr"
)

var lastKey []byte // retention target

func Build() *sunrpc.Server {
	s := sunrpc.NewServer(0x20049631, 1)
	s.SetConcurrency(4)
	s.Register(1, func(d *xdr.Decoder, e *xdr.Encoder) error {
		key, err := d.Opaque()
		if err != nil {
			return err
		}
		lastKey = key // want FV023: store into global under the pool
		return nil
	})
	s.Register(2, func(d *xdr.Decoder, e *xdr.Encoder) error {
		// Clean: a copy is owned storage.
		key, err := d.Opaque()
		if err != nil {
			return err
		}
		lastKey = append([]byte(nil), key...)
		return nil
	})
	return s
}

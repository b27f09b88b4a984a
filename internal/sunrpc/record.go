package sunrpc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Record marking (RFC 1057 §10): on stream transports each RPC
// message is sent as one or more fragments, each preceded by a
// 32-bit header whose high bit marks the last fragment and whose low
// 31 bits carry the fragment length.

const (
	lastFragFlag = 1 << 31
	maxFragment  = 1 << 20 // fragments we emit; larger messages split
)

// DefaultMaxRecord bounds the total size of a received record when
// the reader was not given an explicit limit, protecting it from
// corrupt length words.
const DefaultMaxRecord = 64 << 20

// writeRecord sends data as a record-marked message, splitting it
// into fragments of at most maxFragment bytes.
func writeRecord(w io.Writer, data []byte) error {
	var hdr [4]byte
	for {
		frag := data
		last := true
		if len(frag) > maxFragment {
			frag, last = data[:maxFragment], false
		}
		n := uint32(len(frag))
		if last {
			n |= lastFragFlag
		}
		binary.BigEndian.PutUint32(hdr[:], n)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(frag); err != nil {
			return err
		}
		if last {
			return nil
		}
		data = data[maxFragment:]
	}
}

// appendRecord appends data to dst as a record-marked message —
// writeRecord's framing, built in memory so a writer can coalesce
// several records into one Write call.
func appendRecord(dst, data []byte) []byte {
	for {
		frag := data
		last := true
		if len(frag) > maxFragment {
			frag, last = data[:maxFragment], false
		}
		word := uint32(len(frag))
		if last {
			word |= lastFragFlag
		}
		dst = binary.BigEndian.AppendUint32(dst, word)
		dst = append(dst, frag...)
		if last {
			return dst
		}
		data = data[maxFragment:]
	}
}

// readRecordLimit reads one record-marked message, reassembling
// fragments, bounded to limit total bytes (DefaultMaxRecord when
// limit <= 0). buf is reused when large enough. Fragment headers are
// read into buf's spare capacity, not a local array — a local would
// escape through the io.Reader and put one allocation on every
// message. A fragment's length word is attacker-controlled until its
// bytes actually arrive, so the buffer grows at most one bounded chunk
// ahead of received data — a hostile length prefix cannot force a huge
// allocation up front.
func readRecordLimit(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if limit <= 0 {
		limit = DefaultMaxRecord
	}
	out := buf[:0]
	for {
		out = growRecord(out, 4)
		hdr := out[len(out) : len(out)+4]
		if _, err := io.ReadFull(r, hdr); err != nil {
			return nil, err
		}
		word := binary.BigEndian.Uint32(hdr)
		last := word&lastFragFlag != 0
		n := int(word &^ lastFragFlag)
		if n > limit || len(out)+n > limit {
			return nil, fmt.Errorf("%w: record exceeds %d bytes", ErrBadMessage, limit)
		}
		for n > 0 {
			chunk := n
			if chunk > maxFragment {
				chunk = maxFragment
			}
			out = growRecord(out, chunk)
			out = out[:len(out)+chunk]
			if _, err := io.ReadFull(r, out[len(out)-chunk:]); err != nil {
				return nil, err
			}
			n -= chunk
		}
		if last {
			return out, nil
		}
	}
}

// recordAssembler incrementally reassembles record-marked messages
// from arbitrary byte chunks — the push-style counterpart of
// readRecordLimit, and the server's only parser: both feeds of the
// connection core (conn.go) hand it whatever one read returned. Header
// bytes accumulate in hdr; body bytes append to the caller's record
// buffer. Total record size is bounded by limit.
type recordAssembler struct {
	limit   int
	hdrLen  int  // header bytes collected so far (< 4 mid-header)
	fragRem int  // body bytes remaining in the current fragment
	last    bool // current fragment is the record's last
	started bool // some record bytes consumed since the last complete record
	hdr     [4]byte
}

// midRecord reports whether the assembler is holding a partial record.
func (a *recordAssembler) midRecord() bool { return a.started || a.hdrLen > 0 }

// feed consumes bytes from b into *rec. It returns the count consumed
// and whether *rec now holds one complete record; when complete, the
// remaining bytes of b are left for the next call (with a fresh rec).
// An over-limit record is rejected with ErrBadMessage, exactly as
// readRecordLimit rejects it.
func (a *recordAssembler) feed(b []byte, rec *[]byte) (int, bool, error) {
	consumed := 0
	for consumed < len(b) {
		if a.fragRem == 0 {
			n := copy(a.hdr[a.hdrLen:], b[consumed:])
			a.hdrLen += n
			consumed += n
			if a.hdrLen < 4 {
				return consumed, false, nil
			}
			a.hdrLen = 0
			a.started = true
			word := binary.BigEndian.Uint32(a.hdr[:])
			a.last = word&lastFragFlag != 0
			frag := int(word &^ lastFragFlag)
			if frag > a.limit || len(*rec)+frag > a.limit {
				return consumed, false, fmt.Errorf("%w: record exceeds %d bytes", ErrBadMessage, a.limit)
			}
			a.fragRem = frag
			if a.fragRem == 0 && a.last {
				a.started = false
				return consumed, true, nil
			}
			continue
		}
		chunk := a.fragRem
		if rest := len(b) - consumed; chunk > rest {
			chunk = rest
		}
		out := growRecord(*rec, chunk)
		out = append(out, b[consumed:consumed+chunk]...)
		*rec = out
		consumed += chunk
		a.fragRem -= chunk
		if a.fragRem == 0 && a.last {
			a.started = false
			return consumed, true, nil
		}
	}
	return consumed, false, nil
}

// growRecord ensures n bytes of spare capacity past len(out),
// growing geometrically so a k-fragment record costs O(log k)
// allocations, and a caller reusing the returned buffer
// (rec[:cap(rec)]) stops allocating once it has seen its
// steady-state message size.
func growRecord(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	newCap := 2 * cap(out)
	if newCap < len(out)+n {
		newCap = len(out) + n
	}
	if newCap < 512 {
		newCap = 512
	}
	grown := make([]byte, len(out), newCap)
	copy(grown, out)
	return grown
}

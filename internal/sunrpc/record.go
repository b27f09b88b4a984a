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

// DefaultMaxRecord bounds the total size of a received record,
// protecting the reader from corrupt length words.
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

// recordAssembler incrementally reassembles record-marked messages
// from arbitrary byte chunks. It is the package's only parser: the
// client's reply reader and both feeds of the server connection core
// (conn.go) hand it whatever one read returned. Header bytes accumulate
// in hdr; body bytes append to the caller's record buffer, which grows
// at most one bounded chunk ahead of the bytes received — a length word
// is attacker-controlled until they arrive. Total record size is
// bounded by limit.
type recordAssembler struct {
	limit   int
	hdrLen  int  // header bytes collected so far (< 4 mid-header)
	fragRem int  // body bytes remaining in the current fragment
	more    bool // the record continues past the current fragment
	hdr     [4]byte
}

// midRecord reports whether the assembler is holding a partial record.
func (a *recordAssembler) midRecord() bool { return a.hdrLen > 0 || a.fragRem > 0 || a.more }

// feed consumes bytes from b into *rec. It returns the count consumed
// and whether *rec now holds one complete record; when complete, the
// remaining bytes of b are left for the next call (with a fresh rec).
// An over-limit record is rejected with ErrBadMessage.
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
			word := binary.BigEndian.Uint32(a.hdr[:])
			a.more = word&lastFragFlag == 0
			frag := int(word &^ lastFragFlag)
			if frag > a.limit || len(*rec)+frag > a.limit {
				return consumed, false, fmt.Errorf("%w: record exceeds %d bytes", ErrBadMessage, a.limit)
			}
			a.fragRem = frag
			if a.landed(0, rec) { // an empty last fragment
				return consumed, true, nil
			}
			continue
		}
		chunk := a.fragRem
		if rest := len(b) - consumed; chunk > rest {
			chunk = rest
		}
		out := growRecord(*rec, chunk)
		copy(out[len(out):len(out)+chunk], b[consumed:])
		*rec = out
		consumed += chunk
		if a.landed(chunk, rec) {
			return consumed, true, nil
		}
	}
	return consumed, false, nil
}

// landing is the direct-landing rule every feed applies before a read:
// once the current fragment's remainder exceeds the feed's scratch, the
// read can only return this record's body, so it goes straight into the
// record buffer's spare capacity (the returned slice, reserved at most
// pollReadBuf ahead) — one copy fewer per bulk byte. nil means read the
// scratch and feed it.
func (a *recordAssembler) landing(rec *[]byte, scratch int) []byte {
	if a.fragRem <= scratch {
		return nil
	}
	out := growRecord(*rec, min(a.fragRem, pollReadBuf))
	*rec = out
	return out[len(out):min(cap(out), len(out)+a.fragRem)]
}

// landed accounts for n body bytes now in *rec past its length — read
// into landing's slice, or appended by feed — and reports whether they
// completed the record.
func (a *recordAssembler) landed(n int, rec *[]byte) bool {
	*rec = (*rec)[:len(*rec)+n]
	a.fragRem -= n
	return a.fragRem == 0 && !a.more
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

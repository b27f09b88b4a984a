package sunrpc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// readRecordLimit is the reference record parser: the pull-style reader
// the client used until the record assembler became the package's only
// production parser. The tests parse server output with it (through
// readRecord) and FuzzReadRecord holds the assembler to it. It reads
// one record-marked message, reassembling fragments, bounded to limit
// total bytes (DefaultMaxRecord when limit <= 0); buf is reused when
// large enough, and grows at most one maxFragment chunk ahead of
// received data.
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

// readRecord is readRecordLimit at the default bound.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	return readRecordLimit(r, buf, DefaultMaxRecord)
}

package sunrpc

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkReader delivers data in reads of 1+cuts[i%len(cuts)] bytes (one
// byte each when cuts is empty), however large the caller's buffer.
type chunkReader struct {
	data, cuts []byte
	i          int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.cuts) > 0 {
		n += int(c.cuts[c.i%len(c.cuts)])
	}
	c.i++
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// feedAll drives the assembler the way a production feed does (see
// oneRecordFeed), with a scratch of the given size and a fresh buffer
// per record, until r ends or the assembler rejects the stream. It
// returns the completed records, the rejection, and the most capacity a
// record buffer ever held beyond the bytes received for it.
func feedAll(r io.Reader, scratchSize, limit int) (recs [][]byte, ahead int, err error) {
	f := &oneRecordFeed{r: r, asm: recordAssembler{limit: limit}, scratch: make([]byte, scratchSize)}
	for {
		rec, err := f.next()
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				err = nil // the stream ended
			}
			return recs, f.ahead, err
		}
		recs, f.rec = append(recs, rec), nil
	}
}

// FuzzReadRecord is a differential fuzz of the production record parser
// against the reference one: the same arbitrary byte stream goes through
// the pull parser (readRecordLimit) record by record, and through the
// assembler the way a feed drives it (feedAll), with fuzz-chosen read
// sizes and scratch size so that header splits, scratch-sized reads and
// direct landings all occur. Length words are attacker-controlled, so
// neither may panic or return a record past its limit, the two must
// yield byte-identical record sequences and agree on where the stream
// is rejected — with ErrBadMessage — and a record buffer may never be
// sized by a length word alone: it stays within one bounded reservation
// of the bytes actually received.
func FuzzReadRecord(f *testing.F) {
	var good bytes.Buffer
	if err := writeRecord(&good, []byte("hello, sun rpc record marking")); err != nil {
		f.Fatal(err)
	}
	// Read i returns 1+cuts[i%len(cuts)] bytes: {0} feeds single bytes,
	// {1} and {2} put a read boundary inside every fragment header. The
	// scratch is 1+scratch%32 bytes.
	f.Add(good.Bytes(), []byte{0}, byte(3))
	// A two-fragment record, hand-built.
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 'h', 'i', 0x80, 0x00, 0x00, 0x01, '!'}, []byte{1}, byte(0))
	// A hostile length word with no data behind it.
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff}, []byte{2}, byte(7))
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add(append(good.Bytes(), good.Bytes()...), []byte{6, 0, 40}, byte(15))
	// Direct landing. An 8-byte scratch and 8-byte reads: every read
	// boundary falls exactly at the scratch size.
	f.Add(append(good.Bytes(), good.Bytes()...), []byte{7}, byte(7))
	// A fragment one byte longer than the scratch, then one that fits it.
	f.Add([]byte{0x00, 0x00, 0x00, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x80, 0x00, 0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{40}, byte(7))
	// A within-limit length word the peer never honours: end of stream
	// after the first body byte.
	f.Add([]byte{0x80, 0x00, 0xff, 0xff, 'x'}, []byte{40}, byte(3))

	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data, cuts []byte, scratch byte) {
		var want [][]byte
		var wantErr error
		for r := bytes.NewReader(data); wantErr == nil; {
			var rec []byte
			if rec, wantErr = readRecordLimit(r, nil, limit); wantErr != nil {
				break
			}
			if len(rec) > limit || len(rec) > len(data) {
				t.Fatalf("record of %d bytes from %d input bytes, limit %d", len(rec), len(data), limit)
			}
			want = append(want, rec)
			// A record the reader accepts must round-trip through the
			// writer and back.
			var out bytes.Buffer
			if err := writeRecord(&out, rec); err != nil {
				t.Fatal(err)
			}
			if again, err := readRecordLimit(&out, nil, limit); err != nil || !bytes.Equal(rec, again) {
				t.Fatalf("round-trip changed the record (err %v)", err)
			}
		}

		got, ahead, gotErr := feedAll(&chunkReader{data: data, cuts: cuts}, 1+int(scratch)%32, limit)
		if len(got) != len(want) {
			t.Fatalf("assembler yielded %d records, reference parser %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d differs between the parsers", i)
			}
		}
		// The pull parser always stops on an error: end of stream, or a
		// rejection. The assembler errs only to reject.
		if errors.Is(wantErr, ErrBadMessage) != (gotErr != nil) || (gotErr != nil && !errors.Is(gotErr, ErrBadMessage)) {
			t.Fatalf("parsers disagree on rejection: reference %v, assembler %v", wantErr, gotErr)
		}
		// growRecord at most doubles, from no less than 512 bytes, to
		// fit what it is asked for — received bytes, or one pollReadBuf
		// reservation.
		if bound := 2*(len(data)+pollReadBuf) + 512; ahead > bound {
			t.Fatalf("a record buffer held %d spare bytes after %d bytes of input (bound %d)", ahead, len(data), bound)
		}
	})
}

// TestDirectLandingReservesBoundedAhead: a length word is only a claim.
// A peer announcing a 60 MiB fragment — inside the default limit — and
// then sending one byte, or nothing, costs the receiver one bounded
// reservation, not 60 MiB.
func TestDirectLandingReservesBoundedAhead(t *testing.T) {
	for _, body := range []string{"", "x"} {
		stream := append([]byte{0x83, 0xc0, 0x00, 0x00}, body...)
		recs, ahead, err := feedAll(bytes.NewReader(stream), goReadBuf, DefaultMaxRecord)
		if err != nil || len(recs) != 0 {
			t.Fatalf("body %q: %d records, err %v; want an unfinished record", body, len(recs), err)
		}
		if ahead > 2*pollReadBuf {
			t.Fatalf("body %q: the record buffer reserved %d bytes on the strength of a length word", body, ahead)
		}
	}
}

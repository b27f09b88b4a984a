package sunrpc

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadRecord is a differential fuzz over the two record-marking
// parsers: the same arbitrary byte stream goes through the client's
// pull parser (readRecordLimit) record by record, and through the
// server's push parser (recordAssembler.feed) in fuzz-chosen chunkings.
// Length words are attacker-controlled, so neither may panic or return
// a record past its limit, and — whichever parser saw the bytes — the
// two must yield byte-identical record sequences and agree on where the
// stream is rejected, and that the rejection is ErrBadMessage.
func FuzzReadRecord(f *testing.F) {
	var good bytes.Buffer
	if err := writeRecord(&good, []byte("hello, sun rpc record marking")); err != nil {
		f.Fatal(err)
	}
	// Chunk i is 1+cuts[i%len(cuts)] bytes: {0} feeds single bytes, {1}
	// and {2} put a chunk boundary inside every fragment header.
	f.Add(good.Bytes(), []byte{0})
	// A two-fragment record, hand-built.
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 'h', 'i', 0x80, 0x00, 0x00, 0x01, '!'}, []byte{1})
	// A hostile length word with no data behind it.
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff}, []byte{2})
	f.Add([]byte{}, []byte{})
	f.Add(append(good.Bytes(), good.Bytes()...), []byte{6, 0, 40})

	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
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

		var got [][]byte
		var gotErr error
		var rec []byte
		asm := recordAssembler{limit: limit}
		for i, rest := 0, data; len(rest) > 0 && gotErr == nil; i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)])
			}
			chunk := rest[:min(n, len(rest))]
			rest = rest[len(chunk):]
			for len(chunk) > 0 && gotErr == nil {
				var used int
				var complete bool
				used, complete, gotErr = asm.feed(chunk, &rec)
				chunk = chunk[used:]
				if complete {
					got, rec = append(got, rec), nil
				}
			}
		}

		if len(got) != len(want) {
			t.Fatalf("push parser yielded %d records, pull parser %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d differs between the parsers", i)
			}
		}
		// The pull parser always stops on an error: end of stream, or a
		// rejection. The push parser errs only to reject.
		if errors.Is(wantErr, ErrBadMessage) != (gotErr != nil) || (gotErr != nil && !errors.Is(gotErr, ErrBadMessage)) {
			t.Fatalf("parsers disagree on rejection: pull %v, push %v", wantErr, gotErr)
		}
	})
}

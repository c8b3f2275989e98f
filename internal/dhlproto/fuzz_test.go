package dhlproto

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// FuzzCursor feeds arbitrary bytes to the batch decoder, as fault
// injection does with corrupted DMA completions. The decoder must never
// panic, every payload it yields must alias the batch at its record's
// position, re-encoding the yielded records must reproduce exactly the
// bytes the cursor consumed, and a clean end means the whole batch was
// consumed. Walk must agree with the cursor.
func FuzzCursor(f *testing.F) {
	valid, _ := AppendRecord(nil, 1, 2, []byte("alpha"))
	valid, _ = AppendRecord(valid, 3, 4, nil)
	valid, _ = AppendRecord(valid, 0xffff, 0xfffe, []byte("gamma-gamma"))
	f.Add(valid)
	f.Add([]byte{0, 1, 0, 2, 0})               // truncated header
	f.Add([]byte{0, 1, 0, 2, 0xff, 0xff, 'x'}) // length past the end
	f.Add([]byte{})                            // empty batch
	f.Fuzz(func(t *testing.T, batch []byte) {
		var c Cursor
		c.SetBatch(batch)
		var (
			rec  Record
			re   []byte
			n    int
			cerr error
		)
		for {
			start := c.Offset()
			ok, err := c.Next(&rec)
			if err != nil {
				cerr = err
				if c.Offset() != start {
					t.Fatalf("cursor moved from %d to %d on error", start, c.Offset())
				}
				break
			}
			if !ok {
				break
			}
			n++
			if c.Offset() > len(batch) || c.Offset()-start != RecordOverhead+len(rec.Payload) {
				t.Fatalf("record at %d: payload %d bytes, cursor now %d of %d", start, len(rec.Payload), c.Offset(), len(batch))
			}
			if len(rec.Payload) > 0 && &rec.Payload[0] != &batch[start+RecordOverhead] {
				t.Fatalf("record at %d: payload does not alias the batch", start)
			}
			if re, err = AppendRecord(re, rec.NFID, rec.AccID, rec.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(re, batch[:c.Offset()]) {
			t.Fatalf("re-encoded %x, consumed %x", re, batch[:c.Offset()])
		}
		if cerr == nil && c.Offset() != len(batch) {
			t.Fatalf("clean end at %d of %d bytes", c.Offset(), len(batch))
		}
		if cerr != nil && !errors.Is(cerr, ErrCorrupt) {
			t.Fatalf("error %v is not ErrCorrupt", cerr)
		}
		wn, werr := Count(batch)
		if wn != n || (werr == nil) != (cerr == nil) {
			t.Fatalf("Walk: %d records, err %v; cursor: %d records, err %v", wn, werr, n, cerr)
		}
		if werr != nil {
			if want := fmt.Sprintf("offset %d of", c.Offset()); !errors.Is(werr, ErrCorrupt) || !strings.Contains(werr.Error(), want) {
				t.Fatalf("Walk error %q: want ErrCorrupt naming %q", werr, want)
			}
		}
	})
}

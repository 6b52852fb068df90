//go:build !race

package trace

import (
	"bytes"
	"io"
	"testing"
)

// TestReadBinaryAllocsPerRun: decoding a sized input allocates the
// input buffer once, the Trace and its Requests, and nothing else.
// Race instrumentation allocates on its own, hence the build tag.
func TestReadBinaryAllocsPerRun(t *testing.T) {
	tr := &Trace{NumObjects: 1000, NumClients: 50}
	for i := 0; i < 20_000; i++ {
		tr.Requests = append(tr.Requests, Request{Client: ClientID(i % 50), Object: ObjectID(i * 7 % 1000), Size: 1})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	rd := bytes.NewReader(enc)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(enc)
		if _, err := ReadBinary(rd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("ReadBinary on a bytes.Reader: %v allocations, want <= 3", allocs)
	}
}

// shortLen understates how much its reader holds.
type shortLen struct{ *bytes.Reader }

func (s shortLen) Len() int { return s.Reader.Len() / 2 }

// TestReadBinaryUnderstatedLen: a reader whose Len is too small is
// still read to its end.
func TestReadBinaryUnderstatedLen(t *testing.T) {
	tr := &Trace{NumObjects: 10, NumClients: 2}
	for i := 0; i < 500; i++ {
		tr.Requests = append(tr.Requests, Request{Client: ClientID(i % 2), Object: ObjectID(i % 10), Size: 1})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, r := range []io.Reader{shortLen{bytes.NewReader(buf.Bytes())}, bytes.NewReader(buf.Bytes())} {
		got, err := ReadBinary(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("%T: read %d requests, want %d", r, got.Len(), tr.Len())
		}
	}
}

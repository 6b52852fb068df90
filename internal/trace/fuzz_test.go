package trace

import (
	"bytes"
	"testing"
)

func sameTrace(t *testing.T, label string, a, b *Trace) {
	t.Helper()
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("%s: %d requests became %d", label, len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("%s: request %d changed: %+v -> %+v", label, i, a.Requests[i], b.Requests[i])
		}
	}
	if a.NumClients != b.NumClients || a.NumObjects != b.NumObjects {
		t.Fatalf("%s: counts changed: (%d,%d) -> (%d,%d)",
			label, a.NumClients, a.NumObjects, b.NumClients, b.NumObjects)
	}
}

// FuzzTextCodec feeds arbitrary bytes to the text parser.  Malformed
// input must error (never panic); any trace the parser accepts must
// round-trip exactly through both the text and the binary codec.
func FuzzTextCodec(f *testing.F) {
	f.Add([]byte("# comment\n1 0 42 1\n2 1 42 1\n5 0 7 3\n"))
	f.Add([]byte("0 0 0 0\n"))
	f.Add([]byte("1 2 3\n"))
	f.Add([]byte("4294967295 4294967295 18446744073709551615 4294967295\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-reading our own text output: %v", err)
		}
		sameTrace(t, "text", tr, back)

		buf.Reset()
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		bin, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading our own binary output: %v", err)
		}
		sameTrace(t, "binary", tr, bin)
	})
}

// FuzzBinaryCodec feeds arbitrary bytes to the binary decoder.  The
// decoder must reject junk with an error — never panic or allocate
// unboundedly off an untrusted count — and any stream it accepts must
// round-trip exactly.
func FuzzBinaryCodec(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Trace{
		Requests: []Request{
			{Time: 1, Client: 0, Object: 42, Size: 1},
			{Time: 2, Client: 1, Object: 42, Size: 1},
			{Time: 2, Client: 0, Object: 7, Size: 3},
		},
		NumClients: 2,
		NumObjects: 43,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// The same three records under a header declaring 100: the records
	// decode, then the bytes run out.
	lying := bytes.Clone(buf.Bytes())
	lying[5] = 100
	f.Add(lying)
	f.Add([]byte("WCTR"))
	// A short stream claiming 2^30 requests: must fail on read, not
	// pre-allocate gigabytes.
	f.Add([]byte{'W', 'C', 'T', 'R', 1, 0x80, 0x80, 0x80, 0x80, 4, 1, 1})
	f.Add([]byte("not a trace at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-reading our own binary output: %v", err)
		}
		sameTrace(t, "binary", tr, back)
	})
}

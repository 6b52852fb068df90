package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func randomTrace(rng *rand.Rand, n int) *Trace {
	t := &Trace{}
	var tm uint32
	for i := 0; i < n; i++ {
		tm += uint32(rng.Intn(10))
		t.Requests = append(t.Requests, Request{
			Time:   tm,
			Client: ClientID(rng.Intn(50)),
			Object: ObjectID(rng.Intn(1000)),
			Size:   uint32(1 + rng.Intn(5)),
		})
	}
	t.Recount()
	return t
}

func TestTextRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(1)), 500)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, tr.Requests) {
		t.Fatal("text round trip mismatch")
	}
	if got.NumClients != tr.NumClients || got.NumObjects != tr.NumObjects {
		t.Errorf("universe mismatch: %d/%d vs %d/%d", got.NumClients, got.NumObjects, tr.NumClients, tr.NumObjects)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(2)), 500)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryRoundTripBackwardsTime(t *testing.T) {
	// Backwards time is invalid per Validate but the codec must still
	// round-trip it faithfully (odd-tag escape path).
	tr := &Trace{Requests: []Request{
		{Time: 100, Client: 0, Object: 0, Size: 1},
		{Time: 50, Client: 1, Object: 1, Size: 1},
		{Time: 60, Client: 0, Object: 2, Size: 1},
	}}
	tr.Recount()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, tr.Requests) {
		t.Fatalf("backwards-time round trip mismatch: %+v vs %+v", got.Requests, tr.Requests)
	}
}

func TestReadTextCommentsAndBlank(t *testing.T) {
	in := "# header\n\n0 1 2 3\n# trailing\n1 2 3 4\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
}

func TestReadTextErrors(t *testing.T) {
	for name, in := range map[string]string{
		"too few fields": "1 2 3\n",
		"bad time":       "x 1 2 3\n",
		"bad client":     "1 x 2 3\n",
		"bad object":     "1 2 x 3\n",
		"bad size":       "1 2 3 x\n",
	} {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadText accepted %q", name, in)
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPExxxx")); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// Every cut of an encoding fails with io.ErrUnexpectedEOF, never
// io.EOF (the header declared what is missing), and names where it
// fell: the magic, the header field, or the request.
func TestReadBinaryTruncated(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 50)
	encode := func(k int) []byte {
		var buf bytes.Buffer
		prefix := &Trace{Requests: tr.Requests[:k], NumClients: tr.NumClients, NumObjects: tr.NumObjects}
		if err := WriteBinary(&buf, prefix); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// ends[k] is where request k's record ends; the declared count is
	// one varint byte for every prefix, so the offsets carry over.
	ends := make([]int, len(tr.Requests))
	for k := range ends {
		ends[k] = len(encode(k + 1))
	}
	fields := []struct {
		name string
		v    uint64
	}{
		{"version", binaryVersion},
		{"request count", uint64(len(tr.Requests))},
		{"client count", uint64(tr.NumClients)},
		{"object count", uint64(tr.NumObjects)},
	}
	wantPrefix := func(cut int) string {
		if cut < len(binaryMagic) {
			return "trace: reading magic: "
		}
		end := len(binaryMagic)
		for _, f := range fields {
			end += len(binary.AppendUvarint(nil, f.v))
			if cut < end {
				return "trace: header: reading " + f.name + ": "
			}
		}
		return fmt.Sprintf("trace: request %d: ", sort.SearchInts(ends, cut+1))
	}
	b := encode(len(tr.Requests))
	for cut := 0; cut < len(b); cut++ {
		_, err := ReadBinary(bytes.NewReader(b[:cut]))
		if err == nil {
			t.Fatalf("truncated at %d: no error", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			t.Errorf("truncated at %d: err = %v, want io.ErrUnexpectedEOF and not io.EOF", cut, err)
		}
		if want := wantPrefix(cut); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("truncated at %d: err = %v, want prefix %q", cut, err, want)
		}
	}
}

// The decoder allocates the Trace and its Requests and nothing per
// record, so its count does not grow with the trace.
func TestDecodeBinaryAllocsPerRun(t *testing.T) {
	allocs := func(n int) float64 {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, randomTrace(rand.New(rand.NewSource(6)), n)); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(5, func() {
			if _, err := decodeBinary(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Errorf("allocs per decode: %v at 1 000 requests, %v at 100 000", small, large)
	}
}

// ReadFile sniffs the format: binary and text files both load, and a
// truncated binary trace reports the binary decoder's error instead of
// falling through to the text parser (whose "line 1: want 4 fields"
// would send the user looking for a text problem in a binary file).
func TestReadFile(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)), 200)
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, data := range map[string][]byte{"t.bin": bin.Bytes(), "t.txt": txt.Bytes()} {
		got, err := ReadFile(write(name, data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Requests, tr.Requests) {
			t.Errorf("%s: requests differ after ReadFile", name)
		}
	}
	_, err := ReadFile(write("cut.bin", bin.Bytes()[:bin.Len()/2]))
	if err == nil {
		t.Fatal("truncated binary trace loaded without error")
	}
	if strings.Contains(err.Error(), "line ") || !strings.Contains(err.Error(), "request ") {
		t.Errorf("truncated binary trace: err = %v, want the binary decoder's per-request error", err)
	}
	if _, err := ReadFile(filepath.Join(dir, "absent")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
}

// A file shorter than the magic loads as text unless it is a nonempty
// prefix of the magic: ReadFile then gives what ReadText gives, and a
// cut binary trace keeps the decoder's "reading magic" error.
func TestReadFileShorterThanMagic(t *testing.T) {
	dir := t.TempDir()
	read := func(data string) (*Trace, error) {
		path := filepath.Join(dir, "short")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return ReadFile(path)
	}
	for _, data := range []string{"", "\n", "#\n", "1 2"} {
		got, err := read(data)
		want, wantErr := ReadText(strings.NewReader(data))
		if !reflect.DeepEqual(got, want) || fmt.Sprint(errors.Unwrap(err)) != fmt.Sprint(wantErr) {
			t.Errorf("ReadFile(%q) = %+v, %v; ReadText gives %+v, %v", data, got, err, want, wantErr)
		}
	}
	for _, data := range []string{"W", "WC", "WCT"} {
		if _, err := read(data); err == nil || !strings.Contains(err.Error(), "trace: reading magic: ") ||
			!errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("ReadFile(%q): err = %v, want reading magic: unexpected EOF", data, err)
		}
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(4)), 5000)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, tr); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bb.Len(), tb.Len())
	}
}

// Property: binary encode/decode is the identity on arbitrary valid
// request streams.
func TestPropBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)), int(n)%200+1)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: text encode/decode preserves the request stream.
func TestPropTextRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)), int(n)%100+1)
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Requests, tr.Requests)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Two interchange formats are provided:
//
//   - a text format (one "time client object size" line per request,
//     '#' comments) for human inspection and interop with plotting
//     scripts, and
//   - a compact binary format (magic + varint-delta encoding) for
//     storing the large traces the benchmark harness replays.
//
// Both round-trip exactly (property-tested in codec_test.go).

const (
	binaryMagic   = "WCTR"
	binaryVersion = 1
)

// WriteText writes t in the text format.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# webcache trace: %d requests, %d clients, %d objects\n",
		len(t.Requests), t.NumClients, t.NumObjects)
	for _, r := range t.Requests {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", r.Time, r.Client, r.Object, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.  Malformed lines produce an error
// naming the line number.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.Fields(s)
		if len(f) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(f))
		}
		tm, err := strconv.ParseUint(f[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %v", line, err)
		}
		cl, err := strconv.ParseUint(f[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad client: %v", line, err)
		}
		ob, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad object: %v", line, err)
		}
		sz, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %v", line, err)
		}
		t.Requests = append(t.Requests, Request{
			Time:   uint32(tm),
			Client: ClientID(cl),
			Object: ObjectID(ob),
			Size:   uint32(sz),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.Recount()
	return t, nil
}

// WriteBinary writes t in the binary format: a magic header, counts,
// then per-request varints with time delta-encoded (times are
// non-decreasing in valid traces, so deltas are small).
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	buf := make([]byte, binary.MaxVarintLen64)
	put := func(v uint64) error {
		n := binary.PutUvarint(buf, v)
		_, err := bw.Write(buf[:n])
		return err
	}
	for _, v := range []uint64{binaryVersion, uint64(len(t.Requests)), uint64(t.NumClients), uint64(t.NumObjects)} {
		if err := put(v); err != nil {
			return err
		}
	}
	var prev uint32
	for _, r := range t.Requests {
		var dt uint64
		if r.Time >= prev {
			dt = uint64(r.Time-prev) << 1
		} else {
			// Encode a backwards jump (invalid but preserved) as
			// odd-tagged absolute time so decoding round-trips.
			dt = uint64(r.Time)<<1 | 1
		}
		if err := put(dt); err != nil {
			return err
		}
		prev = r.Time
		if err := put(uint64(r.Client)); err != nil {
			return err
		}
		if err := put(uint64(r.Object)); err != nil {
			return err
		}
		if err := put(uint64(r.Size)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrBadMagic reports a stream that is not a binary webcache trace.
var ErrBadMagic = errors.New("trace: bad magic (not a binary webcache trace)")

// ReadBinary parses the binary format written by WriteBinary.  It reads
// r whole and decodes every record out of that one buffer.
func ReadBinary(r io.Reader) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return decodeBinary(data)
}

// readAll reads r to its end.  A reader that reports how many bytes it
// has left (bytes.Reader, strings.Reader) fills one buffer of that size;
// one byte of spare capacity confirms the end without another
// allocation, and a reader whose Len understated is read on to its end.
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	n := sized.Len()
	data := make([]byte, n, n+1)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	switch _, err := io.ReadFull(r, data[n:n+1]); err {
	case io.EOF:
		return data, nil
	case nil:
		rest, err := io.ReadAll(r)
		return append(data[:n+1], rest...), err
	default:
		return nil, err
	}
}

// ReadFile loads the trace file at path in either interchange format:
// binary when the file opens with the binary magic, text otherwise.
// Only ErrBadMagic and the empty file fall back to the text parser — a
// file that is a binary trace but fails to decode (truncated, corrupt,
// or a nonempty prefix of the magic) reports the binary decoder's
// error, not a text parse error about its first line.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := decodeBinary(data)
	if errors.Is(err, ErrBadMagic) || len(data) == 0 {
		t, err = ReadText(bytes.NewReader(data))
	}
	if err != nil {
		return nil, fmt.Errorf("reading trace %s: %w", path, err)
	}
	return t, nil
}

// decodeBinary validates the header (magic, version, counts), then
// decodes the declared records.  Bytes that stop inside the magic are
// a cut binary trace; any other start is ErrBadMagic.  The count is
// untrusted: Requests is sized to at most one record per four
// remaining bytes (a record is four varints of at least one byte
// each), so a short buffer claiming a huge count fails on a record,
// never on a giant allocation.
func decodeBinary(data []byte) (*Trace, error) {
	if !bytes.HasPrefix(data, []byte(binaryMagic)) {
		if len(data) < len(binaryMagic) && bytes.HasPrefix([]byte(binaryMagic), data) {
			return nil, fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
		}
		return nil, ErrBadMagic
	}
	d := decoder{buf: data, pos: len(binaryMagic)}
	var hdr [4]uint64 // version, then the request, client and object counts
	for i, field := range [...]string{"version", "request count", "client count", "object count"} {
		if hdr[i] = d.uvarint(); d.err != nil {
			return nil, fmt.Errorf("trace: header: reading %s: %w", field, d.err)
		}
		if i == 0 && hdr[0] != binaryVersion {
			return nil, fmt.Errorf("trace: unsupported version %d", hdr[0])
		}
	}
	n, nc, no := hdr[1], hdr[2], hdr[3]
	const maxRequests = 1 << 31
	if n > maxRequests {
		return nil, fmt.Errorf("trace: implausible request count %d", n)
	}
	t := &Trace{
		Requests:   make([]Request, min(n, uint64(len(data)-d.pos)/4)),
		NumClients: int(nc),
		NumObjects: int(no),
	}
	var tm uint32
	for i := range n {
		dt, cl, ob, sz := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint()
		if d.err != nil {
			return nil, fmt.Errorf("trace: request %d: %w", i, d.err)
		}
		if dt&1 == 1 {
			tm = uint32(dt >> 1) // a backwards jump, stored absolute
		} else {
			tm += uint32(dt >> 1)
		}
		t.Requests[i] = Request{Time: tm, Client: ClientID(cl), Object: ObjectID(ob), Size: uint32(sz)}
	}
	return t, nil
}

// decoder reads varints from buf[pos:].  The first varint that fails
// sets err, and every later read returns 0.  Every varint it reads is
// one the format or the header declared, so a buffer that ends before
// or inside one is io.ErrUnexpectedEOF, never io.EOF.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, w := binary.Uvarint(d.buf[d.pos:])
	switch {
	case w > 0:
		d.pos += w
		return v
	case w < 0:
		d.err = errors.New("varint overflows 64 bits")
	default:
		d.err = io.ErrUnexpectedEOF
	}
	return 0
}

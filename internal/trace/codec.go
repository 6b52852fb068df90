package trace

import (
	"bufio"
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

// batchBufSize is the BatchReader's internal byte buffer: large enough
// that the per-refill cost amortizes to nothing, small enough that a
// reader per open trace file is cheap.
const batchBufSize = 64 * 1024

// BatchReader decodes the binary trace format incrementally: the
// header is validated at construction, then ReadBatch decodes request
// records into a caller-owned slice.  All decoding runs over one
// reused internal byte buffer with slice-based varint reads — no
// per-record I/O calls and no per-record allocations — so a replay
// driver can stream arbitrarily large traces through a fixed-size
// batch.  A BatchReader is not safe for concurrent use.
type BatchReader struct {
	r   io.Reader
	buf []byte
	// buf[pos:lim] holds the undecoded bytes read so far.
	pos, lim int
	eof      bool // r reported EOF; buf holds all remaining bytes

	n, decoded uint64 // declared request count / requests handed out
	prev       uint32 // time-delta decoder state, carried across batches
	numClients int
	numObjects int
}

// NewBatchReader validates the header (magic, version, counts) and
// returns a reader positioned at the first request record.
func NewBatchReader(r io.Reader) (*BatchReader, error) {
	b := &BatchReader{r: r, buf: make([]byte, batchBufSize)}
	if err := b.refill(); err != nil && b.lim == 0 {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if b.lim-b.pos < len(binaryMagic) {
		return nil, fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(b.buf[b.pos:b.pos+len(binaryMagic)]) != binaryMagic {
		return nil, ErrBadMagic
	}
	b.pos += len(binaryMagic)
	ver, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	if b.n, err = b.uvarint(); err != nil {
		return nil, err
	}
	nc, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	no, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	const maxRequests = 1 << 31
	if b.n > maxRequests {
		return nil, fmt.Errorf("trace: implausible request count %d", b.n)
	}
	b.numClients = int(nc)
	b.numObjects = int(no)
	return b, nil
}

// Len is the total request count the header declares (untrusted until
// the stream delivers it — a short stream fails ReadBatch with an
// error, so callers should still clamp pre-allocations).
func (b *BatchReader) Len() int { return int(b.n) }

// Remaining is how many declared requests ReadBatch has not yet
// delivered.
func (b *BatchReader) Remaining() int { return int(b.n - b.decoded) }

// NumClients is the header's client count.
func (b *BatchReader) NumClients() int { return b.numClients }

// NumObjects is the header's object count.
func (b *BatchReader) NumObjects() int { return b.numObjects }

// refill slides the undecoded tail to the front of the buffer and
// reads as much as the source will give.
func (b *BatchReader) refill() error {
	if b.eof {
		return io.ErrUnexpectedEOF
	}
	copy(b.buf, b.buf[b.pos:b.lim])
	b.lim -= b.pos
	b.pos = 0
	for b.lim < len(b.buf) {
		n, err := b.r.Read(b.buf[b.lim:])
		b.lim += n
		if err == io.EOF {
			b.eof = true
			return nil
		}
		if err != nil {
			return err
		}
		if n > 0 {
			return nil
		}
	}
	return nil
}

// uvarint decodes one varint from the buffered window, refilling when
// the window runs dry.
func (b *BatchReader) uvarint() (uint64, error) {
	for {
		v, w := binary.Uvarint(b.buf[b.pos:b.lim])
		if w > 0 {
			b.pos += w
			return v, nil
		}
		if w < 0 {
			return 0, fmt.Errorf("trace: varint overflows 64 bits")
		}
		// Window too short for a full varint: pull more bytes.  At EOF
		// the varint can never complete.
		if b.eof {
			if b.pos == b.lim {
				return 0, io.EOF
			}
			return 0, io.ErrUnexpectedEOF
		}
		if err := b.refill(); err != nil {
			return 0, err
		}
	}
}

// ReadBatch decodes up to len(dst) request records into dst and
// returns how many it decoded.  It returns io.EOF once all declared
// requests have been delivered; a stream ending early returns the
// decode error positioned at the failing record.
func (b *BatchReader) ReadBatch(dst []Request) (int, error) {
	if b.decoded == b.n {
		return 0, io.EOF
	}
	for i := range dst {
		if b.decoded == b.n {
			return i, nil
		}
		dt, err := b.uvarint()
		if err != nil {
			return i, fmt.Errorf("trace: request %d: %w", b.decoded, err)
		}
		var tm uint32
		if dt&1 == 1 {
			tm = uint32(dt >> 1)
		} else {
			tm = b.prev + uint32(dt>>1)
		}
		b.prev = tm
		cl, err := b.uvarint()
		if err != nil {
			return i, fmt.Errorf("trace: request %d: %w", b.decoded, err)
		}
		ob, err := b.uvarint()
		if err != nil {
			return i, fmt.Errorf("trace: request %d: %w", b.decoded, err)
		}
		sz, err := b.uvarint()
		if err != nil {
			return i, fmt.Errorf("trace: request %d: %w", b.decoded, err)
		}
		dst[i] = Request{
			Time:   tm,
			Client: ClientID(cl),
			Object: ObjectID(ob),
			Size:   uint32(sz),
		}
		b.decoded++
	}
	return len(dst), nil
}

// ReadBinary parses the binary format written by WriteBinary.  It is a
// thin wrapper over BatchReader that materializes the whole trace;
// streaming consumers should use BatchReader directly.
func ReadBinary(r io.Reader) (*Trace, error) {
	br, err := NewBatchReader(r)
	if err != nil {
		return nil, err
	}
	// The count is untrusted until the stream actually delivers it, so
	// clamp the pre-allocation: a short stream claiming a huge count
	// must fail with a read error, not a giant allocation.
	pre := br.Len()
	if pre > 1<<16 {
		pre = 1 << 16
	}
	t := &Trace{
		Requests:   make([]Request, 0, pre),
		NumClients: br.NumClients(),
		NumObjects: br.NumObjects(),
	}
	for br.Remaining() > 0 {
		// Decode directly into the tail of the accumulating slice; the
		// batch size is however much spare capacity append growth left.
		if cap(t.Requests) == len(t.Requests) {
			t.Requests = append(t.Requests, Request{})[:len(t.Requests)]
		}
		n, err := br.ReadBatch(t.Requests[len(t.Requests):cap(t.Requests)])
		t.Requests = t.Requests[:len(t.Requests)+n]
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ReadFile loads the trace file at path in either interchange format:
// binary when the file opens with the binary magic, text otherwise.
// Only ErrBadMagic falls back to the text parser — a file that is a
// binary trace but fails to decode (truncated, corrupt) reports the
// binary decoder's error, not a text parse error about its first line.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadBinary(f)
	if errors.Is(err, ErrBadMagic) {
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			t, err = ReadText(f)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading trace %s: %w", path, err)
	}
	return t, nil
}

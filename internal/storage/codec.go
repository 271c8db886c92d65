package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/tfunc"
	"repro/internal/value"
)

// magic and version identify the file format.
const (
	magic         = 0x4852444d // "HRDM"
	formatVersion = 1
	// storeVersion is the store-file header version: the header carries
	// the WAL sequence number the snapshot is consistent through, and
	// the header and every relation record are each followed by a CRC32
	// of their bytes. The per-relation record format itself is
	// unchanged (formatVersion).
	storeVersion = 3
	// maxCount bounds every length field read from untrusted input, so a
	// corrupted count cannot trigger a giant allocation.
	maxCount = 1 << 24
)

// EncodeBytes serializes a historical relation (scheme and tuples),
// reading the tuple state through its own core.Pin so a concurrent
// writer can never yield a torn record.
func EncodeBytes(r *core.Relation) ([]byte, error) {
	_, vers := core.Pin(r)
	var w errWriter
	encodePinned(&w, vers[0])
	return w.buf, w.err
}

// encodePinned writes one relation record from a pinned version — the
// only tuple-read path the binary writer has.
func encodePinned(w *errWriter, v core.RelVersion) {
	w.u32(magic)
	w.u32(formatVersion)
	s := v.Rel().Scheme()
	encodeScheme(w, s)
	tuples := v.Tuples()
	w.u32(uint32(len(tuples)))
	for _, t := range tuples {
		encodeTuple(w, s, t)
	}
}

// encodeTuple writes t's lifespan, then its function of every attribute
// of s in scheme order.
func encodeTuple(w *errWriter, s *schema.Scheme, t *core.Tuple) {
	encodeLifespan(w, t.Lifespan())
	for i := range s.Attrs {
		encodeFunc(w, t.ValueAt(i))
	}
}

// DecodeBytes reads a historical relation previously written by
// EncodeBytes.
func DecodeBytes(b []byte) (*core.Relation, error) {
	return decodeRecord(&errReader{buf: b})
}

// decodeRecord reads one relation record as encodePinned wrote it.
func decodeRecord(r *errReader) (*core.Relation, error) {
	if m := r.u32(); r.err == nil && m != magic {
		return nil, fmt.Errorf("storage: bad magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != formatVersion {
		return nil, fmt.Errorf("storage: unsupported version %d", v)
	}
	s, err := decodeScheme(r)
	if err != nil {
		return nil, err
	}
	out := core.NewRelation(s)
	n := r.count()
	if r.err != nil {
		return nil, r.err
	}
	// Decode every tuple first and load them as one batch: a single
	// version bump instead of n single-tuple rounds — the storage
	// layer's bulk-load path. Capacity is bounded (not trusted from the count) so a
	// corrupt header cannot trigger a giant allocation.
	ts := make([]*core.Tuple, 0, int(min(n, 1024)))
	for i := uint32(0); i < n; i++ {
		t, err := r.tuple(s)
		if err != nil {
			return nil, fmt.Errorf("storage: decode tuple %d: %w", i, err)
		}
		ts = append(ts, t)
	}
	if err := out.InsertBatch(ts); err != nil {
		return nil, err
	}
	return out, r.err
}

func encodeScheme(w *errWriter, s *schema.Scheme) {
	w.str(s.Name)
	w.u32(uint32(len(s.Key)))
	for _, k := range s.Key {
		w.str(k)
	}
	w.u32(uint32(len(s.Attrs)))
	for _, a := range s.Attrs {
		w.str(a.Name)
		w.u8(uint8(a.Domain.Kind))
		w.str(a.Domain.Name)
		w.str(a.Interp)
		encodeLifespan(w, a.Lifespan)
	}
}

func decodeScheme(r *errReader) (*schema.Scheme, error) {
	name := r.str()
	nk := r.count()
	if r.err != nil {
		return nil, r.err
	}
	key := make([]string, 0, min(nk, 16))
	for i := uint32(0); i < nk && r.err == nil; i++ {
		key = append(key, r.str())
	}
	na := r.count()
	if r.err != nil {
		return nil, r.err
	}
	attrs := make([]schema.Attribute, 0, min(na, 16))
	for i := uint32(0); i < na && r.err == nil; i++ {
		var a schema.Attribute
		a.Name = r.str()
		a.Domain.Kind = value.Kind(r.u8())
		a.Domain.Name = r.str()
		a.Interp = r.str()
		a.Lifespan = decodeLifespan(r)
		attrs = append(attrs, a)
	}
	if r.err != nil {
		return nil, r.err
	}
	return schema.New(name, key, attrs...)
}

func encodeLifespan(w *errWriter, ls lifespan.Lifespan) {
	w.u32(uint32(ls.NumIntervals()))
	for i := range ls.NumIntervals() {
		iv := ls.IntervalAt(i)
		w.i64(int64(iv.Lo))
		w.i64(int64(iv.Hi))
	}
}

func decodeLifespan(r *errReader) lifespan.Lifespan {
	n := r.count()
	for i := uint32(0); i < n && r.err == nil; i++ {
		lo, hi := chronon.Time(r.i64()), chronon.Time(r.i64())
		if r.err == nil {
			r.ivs.Add(lo, hi)
		}
	}
	return r.ivs.Lifespan()
}

func encodeFunc(w *errWriter, f tfunc.Func) {
	w.u32(uint32(f.NumSteps()))
	for i := range f.NumSteps() {
		iv, v := f.StepAt(i)
		w.i64(int64(iv.Lo))
		w.i64(int64(iv.Hi))
		encodeValue(w, v)
	}
}

func decodeFunc(r *errReader) tfunc.Func {
	n := r.count()
	for i := uint32(0); i < n && r.err == nil; i++ {
		lo, hi := chronon.Time(r.i64()), chronon.Time(r.i64())
		v := decodeValue(r)
		if r.err == nil {
			r.steps.Add(lo, hi, v)
		}
	}
	return r.steps.Func()
}

func encodeValue(w *errWriter, v value.Value) {
	w.u8(uint8(v.Kind()))
	switch v.Kind() {
	case value.KindInt:
		w.i64(v.AsInt())
	case value.KindFloat:
		w.u64(math.Float64bits(v.AsFloat()))
	case value.KindString:
		w.str(v.AsString())
	case value.KindBool:
		if v.AsBool() {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case value.KindTime:
		w.i64(int64(v.AsTime()))
	default:
		w.fail(fmt.Errorf("storage: cannot encode invalid value"))
	}
}

func decodeValue(r *errReader) value.Value {
	switch value.Kind(r.u8()) {
	case value.KindInt:
		return value.Int(r.i64())
	case value.KindFloat:
		return value.Float(math.Float64frombits(r.u64()))
	case value.KindString:
		return value.String_(r.str())
	case value.KindBool:
		return value.Bool(r.u8() != 0)
	case value.KindTime:
		return value.TimeVal(chronon.Time(r.i64()))
	default:
		r.fail(fmt.Errorf("storage: invalid value kind"))
		return value.Value{}
	}
}

// window is the codec's buffer: a writer with a destination hands it
// one write per window of bytes, and a reader with a source asks it
// for one read per window.
const window = 64 << 10

// errWriter encodes into a buffer it owns and folds errors, so encoding
// code stays linear. With a destination (newWriter) the buffer is one
// window, written out whenever it fills; without one, the buffer grows
// and holds the whole encoding. crc is the CRC32 of the bytes since the
// last seal, folded in bulk over buf[summed:] when the buffer is
// written out or sealed.
type errWriter struct {
	dst    io.Writer
	buf    []byte
	crc    uint32
	summed int
	err    error
}

// newWriter returns an errWriter whose output goes to dst.
func newWriter(dst io.Writer) *errWriter {
	return &errWriter{dst: dst, buf: make([]byte, 0, window)}
}

func (w *errWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// room makes room for n more bytes in a windowed buffer.
func (w *errWriter) room(n int) {
	if w.dst != nil && len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

// flush writes the buffer out to the destination and empties it.
func (w *errWriter) flush() {
	w.sum()
	if w.err == nil {
		_, err := w.dst.Write(w.buf)
		w.fail(err)
	}
	w.buf, w.summed = w.buf[:0], 0
}

// sum folds the bytes not yet summed into crc and returns it.
func (w *errWriter) sum() uint32 {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[w.summed:])
	w.summed = len(w.buf)
	return w.crc
}

// seal writes the CRC32 of the bytes since the previous seal, which
// the next seal's CRC does not cover.
func (w *errWriter) seal() {
	w.u32(w.sum())
	w.crc, w.summed = 0, len(w.buf)
}

func (w *errWriter) u8(v uint8) {
	w.room(1)
	w.buf = append(w.buf, v)
}

func (w *errWriter) u32(v uint32) {
	w.room(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *errWriter) u64(v uint64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *errWriter) i64(v int64) { w.u64(uint64(v)) }

// str writes a length-prefixed string, filling the window before each
// write, so a long string costs no buffer beyond the window.
func (w *errWriter) str(s string) {
	w.u32(uint32(len(s)))
	for len(s) > 0 {
		w.room(1)
		k := len(s)
		if w.dst != nil {
			k = min(k, cap(w.buf)-len(w.buf))
		}
		w.buf = append(w.buf, s[:k]...)
		s = s[k:]
	}
}

// errReader decodes from a window it owns and folds errors. With a
// source (newReader) the window holds at most window bytes of it,
// refilled by one read when a field runs past its end; without one,
// buf is the whole input. crc is the CRC32 of the bytes consumed since
// the last reset, folded in bulk over buf[summed:off] before the
// window moves and when a caller asks.
//
// The reader also owns the slabs its decoded tuples are cut from:
// lifespans' intervals, functions' steps, tuples' value slices and the
// tuples themselves.
type errReader struct {
	src     io.Reader
	buf     []byte // buf[off:] is unread
	off     int
	crc     uint32
	summed  int
	err     error
	scratch []byte // a string longer than the window, as it arrives

	ivs    lifespan.Slab
	steps  tfunc.Slab
	funcs  []tfunc.Func // chunk the value slices are cut from
	tuples core.TupleSlab
}

// newReader returns an errReader over src.
func newReader(src io.Reader) *errReader {
	return &errReader{src: src, buf: make([]byte, 0, window)}
}

// reset points r at a new in-memory input, keeping its slabs.
func (r *errReader) reset(b []byte) {
	r.buf, r.off, r.crc, r.summed, r.err = b, 0, 0, 0, nil
}

func (r *errReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// need reports whether n unread bytes are in the window, refilling it
// from the source if they are not.
func (r *errReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf)-r.off >= n {
		return true
	}
	if r.src == nil || n > cap(r.buf) {
		r.fail(io.ErrUnexpectedEOF)
		return false
	}
	r.sum()
	k := copy(r.buf[:cap(r.buf)], r.buf[r.off:])
	got, err := io.ReadAtLeast(r.src, r.buf[k:cap(r.buf)], n-k)
	r.buf, r.off, r.summed = r.buf[:k+got], 0, 0
	r.fail(err)
	return r.err == nil
}

// sum folds the consumed bytes not yet summed into crc and returns it.
func (r *errReader) sum() uint32 {
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf[r.summed:r.off])
	r.summed = r.off
	return r.crc
}

// sealed reads the CRC32 that closes a header or record and reports
// whether it matches the bytes consumed since the previous one.
func (r *errReader) sealed() bool {
	want := r.sum()
	got := r.u32()
	r.crc, r.summed = 0, r.off
	return r.err == nil && got == want
}

// more reports whether any input is left unread.
func (r *errReader) more() (bool, error) {
	if r.off < len(r.buf) || r.src == nil {
		return r.off < len(r.buf), nil
	}
	var b [1]byte
	switch _, err := io.ReadFull(r.src, b[:]); err {
	case nil:
		return true, nil
	case io.EOF:
		return false, nil
	default:
		return false, err
	}
}

func (r *errReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

func (r *errReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.buf[r.off-4:])
}

func (r *errReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.buf[r.off-8:])
}

func (r *errReader) i64() int64 { return int64(r.u64()) }

// count reads a length field, rejecting values that could only come from
// corruption.
func (r *errReader) count() uint32 {
	n := r.u32()
	if r.err == nil && n > maxCount {
		r.fail(fmt.Errorf("storage: count %d exceeds limit", n))
		return 0
	}
	return n
}

// str reads a length-prefixed string. One that fits the window is
// copied out of it; a longer one gathers in the reused scratch slice
// as bytes arrive rather than by the length field, so a corrupt length
// costs no more memory than the input holds.
func (r *errReader) str() string {
	n := int(r.count())
	if r.err != nil {
		return ""
	}
	if r.src == nil || n <= cap(r.buf) {
		if !r.need(n) {
			return ""
		}
		r.off += n
		return string(r.buf[r.off-n : r.off])
	}
	b := r.scratch[:0]
	for len(b) < n && r.need(1) {
		k := min(n-len(b), len(r.buf)-r.off)
		b = append(b, r.buf[r.off:r.off+k]...)
		r.off += k
	}
	r.scratch = b
	if r.err != nil {
		return ""
	}
	return string(b)
}

// tuple reads one tuple of s as encodeTuple wrote it: the tuple, its
// lifespan, its steps and its value slice are all cut from r's slabs.
func (r *errReader) tuple(s *schema.Scheme) (*core.Tuple, error) {
	ls := decodeLifespan(r)
	vals := r.values(len(s.Attrs))
	for i := range vals {
		vals[i] = decodeFunc(r)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.tuples.New(s, ls, vals)
}

// values cuts a capped slice of n functions from the funcs chunk, which
// grows geometrically from a constant like the slabs'.
func (r *errReader) values(n int) []tfunc.Func {
	if cap(r.funcs)-len(r.funcs) < n {
		r.funcs = make([]tfunc.Func, 0, max(min(max(2*cap(r.funcs), 64), 1024), n))
	}
	k := len(r.funcs)
	r.funcs = r.funcs[:k+n]
	return r.funcs[k : k+n : k+n]
}

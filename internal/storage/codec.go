package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

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

// Encode serializes a historical relation (scheme and tuples) to w,
// reading the tuple state through its own core.Pin so a concurrent
// writer can never yield a torn record.
func Encode(w io.Writer, r *core.Relation) error {
	_, vers := core.Pin(r)
	bw := &errWriter{w: w}
	encodePinned(bw, vers[0])
	return bw.err
}

// encodePinned writes one relation record from a pinned version — the
// only tuple-read path the binary writer has.
func encodePinned(bw *errWriter, v core.RelVersion) {
	bw.u32(magic)
	bw.u32(formatVersion)
	s := v.Rel().Scheme()
	encodeScheme(bw, s)
	tuples := v.Tuples()
	bw.u32(uint32(len(tuples)))
	for _, t := range tuples {
		encodeLifespan(bw, t.Lifespan())
		for i := range s.Attrs {
			encodeFunc(bw, t.ValueAt(i))
		}
	}
}

// EncodeBytes is Encode into a fresh buffer.
func EncodeBytes(r *core.Relation) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reads a historical relation previously written by Encode.
func Decode(rd io.Reader) (*core.Relation, error) {
	br := &errReader{r: rd}
	if m := br.u32(); br.err == nil && m != magic {
		return nil, fmt.Errorf("storage: bad magic %#x", m)
	}
	if v := br.u32(); br.err == nil && v != formatVersion {
		return nil, fmt.Errorf("storage: unsupported version %d", v)
	}
	s, err := decodeScheme(br)
	if err != nil {
		return nil, err
	}
	out := core.NewRelation(s)
	n := br.count()
	if br.err != nil {
		return nil, br.err
	}
	// Decode every tuple first and load them as one batch: a single
	// version bump and one coalesced index-maintenance notification
	// instead of n single-tuple rounds — the storage layer's bulk-load
	// path. Capacity is bounded (not trusted from the count) so a
	// corrupt header cannot trigger a giant allocation.
	ts := make([]*core.Tuple, 0, int(min(n, 1024)))
	for i := uint32(0); i < n; i++ {
		ls := decodeLifespan(br)
		vals := make([]tfunc.Func, len(s.Attrs))
		for j := range vals {
			vals[j] = decodeFunc(br)
		}
		if br.err != nil {
			return nil, br.err
		}
		t, err := core.NewTuple(s, ls, vals)
		if err != nil {
			return nil, fmt.Errorf("storage: decode tuple %d: %w", i, err)
		}
		ts = append(ts, t)
	}
	if err := out.InsertBatch(ts); err != nil {
		return nil, err
	}
	return out, br.err
}

// DecodeBytes is Decode from a byte slice.
func DecodeBytes(b []byte) (*core.Relation, error) {
	return Decode(bytes.NewReader(b))
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
	ivs := ls.Intervals()
	w.u32(uint32(len(ivs)))
	for _, iv := range ivs {
		w.i64(int64(iv.Lo))
		w.i64(int64(iv.Hi))
	}
}

func decodeLifespan(r *errReader) lifespan.Lifespan {
	n := r.count()
	if r.err != nil || n == 0 {
		return lifespan.Empty()
	}
	ivs := make([]chronon.Interval, 0, min(n, 16))
	for i := uint32(0); i < n && r.err == nil; i++ {
		lo := chronon.Time(r.i64())
		hi := chronon.Time(r.i64())
		ivs = append(ivs, chronon.NewInterval(lo, hi))
	}
	return lifespan.New(ivs...)
}

func encodeFunc(w *errWriter, f tfunc.Func) {
	w.u32(uint32(f.NumSteps()))
	f.Steps(func(iv chronon.Interval, v value.Value) bool {
		w.i64(int64(iv.Lo))
		w.i64(int64(iv.Hi))
		encodeValue(w, v)
		return true
	})
}

func decodeFunc(r *errReader) tfunc.Func {
	n := r.count()
	var b tfunc.Builder
	for i := uint32(0); i < n && r.err == nil; i++ {
		lo := chronon.Time(r.i64())
		hi := chronon.Time(r.i64())
		v := decodeValue(r)
		if r.err == nil {
			b.Set(lo, hi, v)
		}
	}
	return b.Build()
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

// errWriter folds write errors so encoding code stays linear.
type errWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (w *errWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *errWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	_, err := w.w.Write(b)
	w.fail(err)
}

func (w *errWriter) u8(v uint8) { w.buf[0] = v; w.write(w.buf[:1]) }
func (w *errWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}
func (w *errWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}
func (w *errWriter) i64(v int64) { w.u64(uint64(v)) }
func (w *errWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.write([]byte(s))
}

// errReader mirrors errWriter for decoding. scratch is reused by every
// str call, so a decoded string costs exactly its own allocation.
type errReader struct {
	r       io.Reader
	err     error
	buf     [8]byte
	scratch []byte
}

func (r *errReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *errReader) read(b []byte) {
	if r.err != nil {
		return
	}
	_, err := io.ReadFull(r.r, b)
	r.fail(err)
}

func (r *errReader) u8() uint8 {
	r.read(r.buf[:1])
	return r.buf[0]
}

func (r *errReader) u32() uint32 {
	r.read(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

func (r *errReader) u64() uint64 {
	r.read(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
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

// str reads a length-prefixed string into the reused scratch slice,
// growing it as bytes arrive rather than by the length field, so a
// corrupt length costs no more memory than the input holds.
func (r *errReader) str() string {
	n := int(r.count())
	b := r.scratch[:0]
	for len(b) < n && r.err == nil {
		k := min(n-len(b), 64<<10)
		b = slices.Grow(b, k)[:len(b)+k]
		r.read(b[len(b)-k:])
	}
	r.scratch = b
	if r.err != nil {
		return ""
	}
	return string(b)
}

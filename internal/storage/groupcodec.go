package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// The WAL payload for one committed write group, restricted to the
// relations of one durable store:
//
//	u32 nRels
//	per relation: scheme (encodeScheme) | u32 nOps
//	per op:       u8 flags (bit0 = merging) | lifespan | one func per
//	              scheme attribute, in scheme order
//
// The codec reuses the binary store format's primitives (errWriter /
// errReader, scheme, lifespan and step-function encodings), so the log
// speaks the same dialect as the snapshot file. Carrying the full
// scheme per relation makes every record self-describing: replay can
// rebuild a relation created after the last checkpoint from its log
// record alone.

// groupOpFlagMerging marks an op staged with InsertMerging semantics.
const groupOpFlagMerging = 1

// encodeGroupPayload serializes the ops of g on the relations attached
// to l. It returns nil (no error) when no staged op is. The staged
// tuples are reachable only through the group — pre-apply, under the
// commit locks — so this read path needs no pin. Ops walks the group
// grouped by relation, so each relation's op count is kept in place in
// the buffer and bumped as its ops are written.
func encodeGroupPayload(g *core.WriteGroup, l core.GroupLog) ([]byte, error) {
	var w errWriter
	w.u32(0) // relation count, bumped below
	var cur *core.Relation
	opsAt := 0
	g.Ops(l, func(r *core.Relation, t *core.Tuple, merging bool) {
		if r != cur {
			cur = r
			bumpU32(w.buf)
			encodeScheme(&w, r.Scheme())
			opsAt = len(w.buf)
			w.u32(0) // op count, bumped below
		}
		bumpU32(w.buf[opsAt:])
		var flags uint8
		if merging {
			flags |= groupOpFlagMerging
		}
		w.u8(flags)
		encodeTuple(&w, r.Scheme(), t)
	})
	if cur == nil {
		return nil, nil
	}
	if w.err != nil {
		return nil, fmt.Errorf("storage: encode group: %w", w.err)
	}
	return w.buf, nil
}

// bumpU32 adds one to the little-endian u32 at the start of b.
func bumpU32(b []byte) {
	binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+1)
}

// applyGroupPayload re-executes one logged group against s as a fresh
// write group: ops land on the store's existing relations by name, and
// a relation the snapshot doesn't know is rebuilt from the record's
// scheme and registered after the commit. Returns the number of tuples
// staged. OpenDurable replays before it attaches the store's log to
// any relation, so the group is not logged again.
func (s *Store) applyGroupPayload(r *errReader) (int, error) {
	nRels := r.count()
	if r.err != nil {
		return 0, r.err
	}
	g := core.NewWriteGroup()
	var fresh []*core.Relation
	tuples := 0
	for i := uint32(0); i < nRels; i++ {
		sch, err := decodeScheme(r)
		if err != nil {
			return 0, fmt.Errorf("storage: replay scheme: %w", err)
		}
		target, ok := s.Get(sch.Name)
		if ok {
			if target.Scheme().String() != sch.String() {
				return 0, fmt.Errorf("storage: replay: relation %s: logged scheme differs from store:\n  have %s\n  got  %s",
					sch.Name, target.Scheme(), sch)
			}
			sch = target.Scheme()
		} else {
			target = core.NewRelation(sch)
			fresh = append(fresh, target)
		}
		nOps := r.count()
		if r.err != nil {
			return 0, r.err
		}
		for j := uint32(0); j < nOps; j++ {
			flags := r.u8()
			t, err := r.tuple(sch)
			if err != nil {
				return 0, fmt.Errorf("storage: replay tuple %d of %s: %w", j, sch.Name, err)
			}
			if flags&groupOpFlagMerging != 0 {
				g.InsertMerging(target, t)
			} else {
				g.Insert(target, t)
			}
			tuples++
		}
	}
	if err := g.Commit(); err != nil {
		return 0, fmt.Errorf("storage: replay commit: %w", err)
	}
	for _, nr := range fresh {
		s.Put(nr)
	}
	return tuples, nil
}

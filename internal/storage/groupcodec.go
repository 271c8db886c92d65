package storage

import (
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

// encodeGroupPayload serializes the ops of g whose relation satisfies
// belongs. It returns nil (no error) when no staged op belongs. The
// staged tuples are reachable only through the group — pre-apply, under
// the commit locks — so this read path needs no pin.
func encodeGroupPayload(g *core.WriteGroup, belongs func(*core.Relation) bool) ([]byte, error) {
	type stagedOp struct {
		t       *core.Tuple
		merging bool
	}
	var rels []*core.Relation
	byRel := make(map[*core.Relation][]stagedOp)
	g.Ops(func(r *core.Relation, t *core.Tuple, merging bool) {
		if !belongs(r) {
			return
		}
		if _, ok := byRel[r]; !ok {
			rels = append(rels, r)
		}
		byRel[r] = append(byRel[r], stagedOp{t: t, merging: merging})
	})
	if len(rels) == 0 {
		return nil, nil
	}
	var w errWriter
	w.u32(uint32(len(rels)))
	for _, r := range rels {
		s := r.Scheme()
		encodeScheme(&w, s)
		ops := byRel[r]
		w.u32(uint32(len(ops)))
		for _, op := range ops {
			var flags uint8
			if op.merging {
				flags |= groupOpFlagMerging
			}
			w.u8(flags)
			encodeTuple(&w, s, op.t)
		}
	}
	if w.err != nil {
		return nil, fmt.Errorf("storage: encode group: %w", w.err)
	}
	return w.buf, nil
}

// applyGroupPayload re-executes one logged group against s as a fresh
// write group: ops land on the store's existing relations by name, and
// a relation the snapshot doesn't know is rebuilt from the record's
// scheme and registered after the commit. Returns the number of tuples
// staged. The caller runs with s.replaying set, so the commit hook
// does not re-log the group.
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

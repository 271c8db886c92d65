package storage_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// BenchmarkStorageCodec measures the Figure 9 physical-level round trip.
func BenchmarkStorageCodec(b *testing.B) {
	world := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: 200, HistoryLen: 200, ChangeEvery: 20, ReincarnationProb: 0.3, Seed: 1,
	})
	blob, err := storage.EncodeBytes(world)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for b.Loop() {
			if _, err := storage.EncodeBytes(world); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for b.Loop() {
			if _, err := storage.DecodeBytes(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGroupCommit prices durability: one op commits a write group
// of three 50-tuple batches, one per relation, into an in-memory store,
// into a durable store whose per-commit fsync is elided (framing, CRC
// and LSN bookkeeping only), and into a durable store that fsyncs
// before it publishes. Tuple construction and a fresh store every 256
// commits (which bounds memory) are outside the timed region.
func BenchmarkGroupCommit(b *testing.B) {
	const relsN, batchN, perStore = 3, 50, 256
	for _, v := range []struct {
		name string
		open func(b *testing.B) *storage.Store
	}{
		{"memory", func(*testing.B) *storage.Store { return storage.NewStore() }},
		{"wal_nosync", durableStore(storage.DurableOptions{NoSync: true})},
		{"wal_fsync", durableStore(storage.DurableOptions{})},
	} {
		b.Run(v.name, func(b *testing.B) {
			full := lifespan.Interval(0, 999)
			var st *storage.Store
			rels := make([]*core.Relation, relsN)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				b.StopTimer()
				if i%perStore == 0 {
					if st != nil {
						st.Close()
					}
					st = v.open(b)
					for j := range rels {
						rels[j] = core.NewRelation(schema.MustNew(fmt.Sprintf("G%d", j), []string{"K"},
							schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
							schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
						))
						st.Put(rels[j])
					}
				}
				batches := make([][]*core.Tuple, relsN)
				for j, r := range rels {
					batches[j] = make([]*core.Tuple, batchN)
					for k := range batches[j] {
						batches[j][k] = core.NewTupleBuilder(r.Scheme(), lifespan.Interval(0, 9)).
							Key("K", value.String_(fmt.Sprintf("k%06d", i%perStore*batchN+k))).
							Set("V", 0, 9, value.Int(int64(k))).
							MustBuild()
					}
				}
				b.StartTimer()
				g := core.NewWriteGroup()
				for j, r := range rels {
					g.InsertBatch(r, batches[j])
				}
				if err := g.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st.Close()
		})
	}
}

// durableStore opens WAL-backed stores, each in a fresh temporary
// directory.
func durableStore(opts storage.DurableOptions) func(b *testing.B) *storage.Store {
	return func(b *testing.B) *storage.Store {
		st, _, err := storage.OpenDurableOptions(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
}

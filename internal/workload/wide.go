package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

// WideConfig parameterizes the wide-schema generator used by the storage
// experiment (E10). The paper's case for attribute-level timestamping
// ([Clifford 85]: "more user control of the different temporal properties
// of individual attributes") rests on attributes changing at different
// rates: under tuple timestamping, one fast-changing attribute forces the
// whole wide tuple to be re-stored at every change, while HRDM re-stores
// only the changed attribute. Wide generates exactly that shape:
// NumAttrs integer attributes where attribute i changes every
// BaseChange·2^i chronons, so V0 churns while the tail is near-constant.
type WideConfig struct {
	NumObjects int
	HistoryLen int
	NumAttrs   int
	BaseChange int
	Seed       int64
}

// WideScheme builds the scheme: OID (string key) plus V0..V{n-1}.
func WideScheme(cfg WideConfig) *schema.Scheme {
	full := lifespan.Interval(0, chronon.Time(cfg.HistoryLen-1))
	attrs := []schema.Attribute{
		{Name: "OID", Domain: value.Strings, Lifespan: full},
	}
	for i := 0; i < cfg.NumAttrs; i++ {
		attrs = append(attrs, schema.Attribute{
			Name: fmt.Sprintf("V%d", i), Domain: value.Ints, Lifespan: full, Interp: "step",
		})
	}
	return schema.MustNew("WIDE", []string{"OID"}, attrs...)
}

// Wide generates the wide relation: every object spans the whole clock;
// attribute V_i is re-randomized every BaseChange·2^i chronons.
func Wide(cfg WideConfig) *core.Relation {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := WideScheme(cfg)
	end := chronon.Time(cfg.HistoryLen - 1)
	full := lifespan.Interval(0, end)
	r := core.NewRelation(s)
	for o := 0; o < cfg.NumObjects; o++ {
		b := core.NewTupleBuilder(s, full)
		b.Key("OID", value.String_(fmt.Sprintf("obj%05d", o)))
		period := cfg.BaseChange
		for i := 0; i < cfg.NumAttrs; i++ {
			name := fmt.Sprintf("V%d", i)
			var t chronon.Time
			for t <= end {
				hi := t + chronon.Time(period) - 1
				if hi > end {
					hi = end
				}
				b.Set(name, t, hi, value.Int(rng.Int63n(1_000_000)))
				t = hi + 1
			}
			if period < cfg.HistoryLen {
				period *= 2
			}
		}
		r.MustInsert(b.MustBuild())
	}
	return r
}

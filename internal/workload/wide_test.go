package workload

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

// wideCfg is a wide relation of 100 objects over 400 chronons with 8
// attributes.
var wideCfg = WideConfig{NumObjects: 100, HistoryLen: 400, NumAttrs: 8, BaseChange: 5, Seed: 21}

func TestWideShape(t *testing.T) {
	cfg := wideCfg
	r := Wide(cfg)
	if r.Cardinality() != cfg.NumObjects {
		t.Fatalf("cardinality = %d", r.Cardinality())
	}
	s := r.Scheme()
	if len(s.Attrs) != cfg.NumAttrs+1 {
		t.Fatalf("attrs = %d, want %d", len(s.Attrs), cfg.NumAttrs+1)
	}
	// Change-rate gradient: earlier attributes store more steps.
	tp := r.Tuples()[0]
	prev := -1
	for i := 0; i < cfg.NumAttrs; i++ {
		steps := tp.Value(fmt.Sprintf("V%d", i)).NumSteps()
		if prev >= 0 && steps > prev {
			t.Errorf("V%d has %d steps, more than V%d's %d — gradient must be non-increasing",
				i, steps, i-1, prev)
		}
		prev = steps
	}
	// V0 must genuinely churn relative to the tail.
	hot := tp.Value("V0").NumSteps()
	cold := tp.Value(fmt.Sprintf("V%d", cfg.NumAttrs-1)).NumSteps()
	if hot < 4*cold {
		t.Errorf("hot attribute (%d steps) should far exceed cold (%d)", hot, cold)
	}
}

func TestWideDeterministic(t *testing.T) {
	cfg := wideCfg
	if !Wide(cfg).Equal(Wide(cfg)) {
		t.Error("same seed must reproduce the relation")
	}
}

func TestWideStorageMonotoneInWidth(t *testing.T) {
	// The paper's E10 shape at the workload level: tuplestamp bytes grow
	// superlinearly in width relative to HRDM bytes.
	ratio := func(width int) float64 {
		cfg := WideConfig{NumObjects: 20, HistoryLen: 100, NumAttrs: width, BaseChange: 5, Seed: 3}
		r := Wide(cfg)
		ts, err := ToTupleStamp(r)
		if err != nil {
			t.Fatal(err)
		}
		return float64(ts.SizeBytes()) / float64(storage.SizeBytes(r))
	}
	if !(ratio(12) > ratio(3)) {
		t.Errorf("ts/HRDM ratio must grow with width: %f vs %f", ratio(12), ratio(3))
	}
}

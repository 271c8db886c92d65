package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzWALCorruption fuzzes *corruption*, not log bytes: a pristine WAL
// of known committed groups is truncated at an arbitrary offset and
// has one byte flipped, and recovery must neither panic nor produce
// anything but a committed prefix — both relations cut at the same
// group (atomicity), no key outside 1..k (no inventions). Fuzzing raw
// log bytes instead would let the fuzzer *construct* valid logs that
// were never committed, which are not recovery's contract.
func FuzzWALCorruption(f *testing.F) {
	const groups = 6
	seedDir := f.TempDir()
	st, _, err := OpenDurableOptions(seedDir, DurableOptions{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	a := core.NewRelation(dScheme("FA"))
	b := core.NewRelation(dScheme("FB"))
	st.Put(a)
	st.Put(b)
	for i := 1; i <= groups; i++ {
		g := core.NewWriteGroup()
		g.Insert(a, dTuple(a.Scheme(), fmt.Sprintf("k%03d", i), int64(i)))
		g.Insert(b, dTuple(b.Scheme(), fmt.Sprintf("k%03d", i), int64(-i)))
		if err := g.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	pristine, err := os.ReadFile(filepath.Join(seedDir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	if err := st.log.Close(); err != nil {
		f.Fatal(err)
	}

	f.Add(uint32(len(pristine)), uint32(0), byte(0))   // untouched
	f.Add(uint32(4), uint32(2), byte(0xff))            // inside the header
	f.Add(uint32(len(pristine)-3), uint32(9), byte(1)) // torn tail + header flip
	f.Add(uint32(len(pristine)), uint32(40), byte(8))  // mid-log flip

	f.Fuzz(func(t *testing.T, truncAt, flipPos uint32, flipMask byte) {
		data := append([]byte(nil), pristine...)
		if int64(truncAt) < int64(len(data)) {
			data = data[:truncAt]
		}
		if len(data) > 0 {
			data[int(flipPos)%len(data)] ^= flipMask
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o666); err != nil {
			t.Fatal(err)
		}
		rec, _, err := OpenDurableOptions(dir, DurableOptions{NoSync: true})
		if err != nil {
			t.Fatalf("recovery must absorb any tail corruption, got: %v", err)
		}
		defer rec.log.Close()

		card := func(name string) int {
			r, ok := rec.Get(name)
			if !ok {
				return 0
			}
			_, vers := core.Pin(r)
			return vers[0].Cardinality()
		}
		ka, kb := card("FA"), card("FB")
		if ka != kb {
			t.Fatalf("torn group recovered: |FA|=%d |FB|=%d", ka, kb)
		}
		if ka > groups {
			t.Fatalf("recovered %d groups, only %d were committed", ka, groups)
		}
		for _, name := range []string{"FA", "FB"} {
			r, ok := rec.Get(name)
			if !ok {
				continue
			}
			_, vers := core.Pin(r)
			for i := 1; i <= ka; i++ {
				if _, ok := vers[0].Lookup(fmt.Sprintf("%q", fmt.Sprintf("k%03d", i))); !ok {
					t.Fatalf("relation %s holds %d tuples but not key k%03d: not a prefix", name, ka, i)
				}
			}
		}
	})
}

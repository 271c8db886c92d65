package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/value"
)

func dScheme(name string) *schema.Scheme {
	full := lifespan.MustParse("{[0,999]}")
	return schema.MustNew(name, []string{"K"},
		schema.Attribute{Name: "K", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "V", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
}

func dTuple(s *schema.Scheme, k string, v int64) *core.Tuple {
	return core.NewTupleBuilder(s, lifespan.Interval(0, 9)).
		Key("K", value.String_(k)).
		Set("V", 0, 9, value.Int(v)).
		MustBuild()
}

func openDurableT(t *testing.T, dir string) (*Store, RecoveryStats) {
	t.Helper()
	st, stats, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st, stats
}

// commitKV commits one write group inserting key k{i} into every given
// relation of st.
func commitKV(t *testing.T, rels []*core.Relation, i int) {
	t.Helper()
	g := core.NewWriteGroup()
	for j, r := range rels {
		g.Insert(r, dTuple(r.Scheme(), fmt.Sprintf("k%03d", i), int64(i*10+j)))
	}
	if err := g.Commit(); err != nil {
		t.Fatalf("commit group %d: %v", i, err)
	}
}

// checkPrefix asserts the named relation holds exactly groups 1..wantK.
func checkPrefix(t *testing.T, st *Store, name string, wantK int) {
	t.Helper()
	r, ok := st.Get(name)
	if !ok {
		if wantK != 0 {
			t.Fatalf("relation %s missing, want %d groups", name, wantK)
		}
		return
	}
	_, vers := core.Pin(r)
	v := vers[0]
	if v.Cardinality() != wantK {
		t.Fatalf("relation %s has %d tuples, want exactly groups 1..%d", name, v.Cardinality(), wantK)
	}
	for i := 1; i <= wantK; i++ {
		// Lookup takes canonical value renderings; strings are quoted.
		if _, ok := v.Lookup(fmt.Sprintf("%q", fmt.Sprintf("k%03d", i))); !ok {
			t.Fatalf("relation %s lost group %d of a committed prefix of %d", name, i, wantK)
		}
	}
}

// copyFile copies src to dst if src exists.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o666); err != nil {
		t.Fatal(err)
	}
}

// cloneDir copies a durable store directory, simulating the on-disk
// state a crash at this instant would leave (every WAL append is
// fsynced, so the live files are the durable state).
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyFile(t, filepath.Join(src, snapshotFile), filepath.Join(dst, snapshotFile))
	copyFile(t, filepath.Join(src, walFile), filepath.Join(dst, walFile))
	return dst
}

// TestDurableCleanLifecycle: open empty → put → commit groups →
// close → reopen reproduces the store with nothing to replay.
func TestDurableCleanLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, stats := openDurableT(t, dir)
	if stats.Recovered() {
		t.Fatalf("fresh dir reported recovery: %+v", stats)
	}
	a := core.NewRelation(dScheme("DA"))
	b := core.NewRelation(dScheme("DB"))
	st.Put(a)
	st.Put(b)
	for i := 1; i <= 5; i++ {
		commitKV(t, []*core.Relation{a, b}, i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, stats2 := openDurableT(t, dir)
	if stats2.ReplayedGroups != 0 || stats2.TornBytes != 0 {
		t.Fatalf("clean close still replayed: %+v", stats2)
	}
	checkPrefix(t, st2, "DA", 5)
	checkPrefix(t, st2, "DB", 5)
	ra, _ := st2.Get("DA")
	if !ra.Equal(func() *core.Relation { _, v := core.Pin(a); return v[0].View() }()) {
		t.Fatal("reloaded DA differs from the original")
	}
}

// TestDurableReplayWithoutCheckpoint: a crash before any checkpoint
// recovers everything from the log alone, including relations the
// snapshot never saw (the payload carries the scheme).
func TestDurableReplayWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, _ := openDurableT(t, dir)
	a := core.NewRelation(dScheme("RA"))
	b := core.NewRelation(dScheme("RB"))
	st.Put(a)
	st.Put(b)
	for i := 1; i <= 7; i++ {
		commitKV(t, []*core.Relation{a, b}, i)
	}
	crash := cloneDir(t, dir) // no Close, no Checkpoint

	st2, stats := openDurableT(t, crash)
	if stats.ReplayedGroups != 7 {
		t.Fatalf("replayed %d groups, want 7 (stats %+v)", stats.ReplayedGroups, stats)
	}
	if stats.ReplayedTuples != 14 {
		t.Fatalf("replayed %d tuples, want 14", stats.ReplayedTuples)
	}
	if !stats.Recovered() {
		t.Fatal("stats.Recovered() = false after a real replay")
	}
	checkPrefix(t, st2, "RA", 7)
	checkPrefix(t, st2, "RB", 7)

	// Recovery folded the replay into a fresh checkpoint: a third open
	// starts from the snapshot with nothing to redo.
	st2.Close()
	st3, stats3 := openDurableT(t, crash)
	if stats3.ReplayedGroups != 0 {
		t.Fatalf("post-recovery open replayed %d groups, want 0", stats3.ReplayedGroups)
	}
	checkPrefix(t, st3, "RA", 7)
}

// TestCheckpointCrashWindowIdempotence models the checkpoint's crash
// window: the new snapshot has been renamed into place but the log has
// not yet been truncated. Replay must skip every record the snapshot
// already covers — applying them twice would fail (duplicate keys) or
// double data.
func TestCheckpointCrashWindowIdempotence(t *testing.T) {
	dir := t.TempDir()
	st, _ := openDurableT(t, dir)
	a := core.NewRelation(dScheme("CA"))
	st.Put(a)
	for i := 1; i <= 3; i++ {
		commitKV(t, []*core.Relation{a}, i)
	}
	crash := cloneDir(t, dir) // full log, no snapshot
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Graft the post-checkpoint snapshot next to the pre-checkpoint log:
	// exactly the state of a crash between Save and TruncateThrough.
	copyFile(t, filepath.Join(dir, snapshotFile), filepath.Join(crash, snapshotFile))

	st2, stats := openDurableT(t, crash)
	if stats.SnapshotLSN != 3 || stats.ReplayedGroups != 0 {
		t.Fatalf("crash-window open: %+v, want snapshot LSN 3 and 0 replayed", stats)
	}
	checkPrefix(t, st2, "CA", 3)

	// And fresh groups after the window land at LSNs above the snapshot.
	ca, _ := st2.Get("CA")
	commitKV(t, []*core.Relation{ca}, 4)
	crash2 := cloneDir(t, crash)
	st3, stats3 := openDurableT(t, crash2)
	if stats3.ReplayedGroups != 1 {
		t.Fatalf("replayed %d, want exactly the post-window group", stats3.ReplayedGroups)
	}
	checkPrefix(t, st3, "CA", 4)
}

// TestCrashRecoveryTorture is the headline durability proof: commit
// groups spanning two relations, cut the WAL at every group boundary,
// at off-by-one offsets around each, and at random byte offsets, and
// require every reopen to recover a store equal to a prefix of the
// committed groups — both relations at the same prefix (no torn
// groups), nothing beyond the bytes on disk (no inventions), and with
// the full log present, everything (no lost acknowledged commits).
func TestCrashRecoveryTorture(t *testing.T) {
	dir := t.TempDir()
	st, _ := openDurableT(t, dir)
	sa, sb := dScheme("TA"), dScheme("TB")
	a, b := core.NewRelation(sa), core.NewRelation(sb)
	st.Put(a)
	st.Put(b)

	const groups = 25
	boundaries := []int64{st.log.Size()} // boundaries[k] = log size after k groups
	for i := 1; i <= groups; i++ {
		commitKV(t, []*core.Relation{a, b}, i)
		boundaries = append(boundaries, st.log.Size())
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(walBytes)) != boundaries[groups] {
		t.Fatalf("on-disk log is %d bytes, in-memory says %d", len(walBytes), boundaries[groups])
	}

	cuts := map[int64]bool{0: true, 1: true, int64(len(walBytes)): true}
	for _, bd := range boundaries {
		for _, d := range []int64{-1, 0, 1} {
			if c := bd + d; c >= 0 && c <= int64(len(walBytes)) {
				cuts[c] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		cuts[rng.Int63n(int64(len(walBytes))+1)] = true
	}

	for cut := range cuts {
		d2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(d2, walFile), walBytes[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		st2, stats, err := OpenDurable(d2)
		if err != nil {
			t.Fatalf("cut at %d: OpenDurable: %v", cut, err)
		}
		wantK := 0
		for k := 1; k <= groups; k++ {
			if boundaries[k] <= cut {
				wantK = k
			}
		}
		if stats.ReplayedGroups != wantK {
			t.Fatalf("cut at %d: replayed %d groups, want %d", cut, stats.ReplayedGroups, wantK)
		}
		checkPrefix(t, st2, "TA", wantK)
		checkPrefix(t, st2, "TB", wantK)
		if err := st2.Close(); err != nil {
			t.Fatalf("cut at %d: close recovered store: %v", cut, err)
		}
	}
}

// TestDurableConcurrentCommitsAndCheckpoints races writer goroutines
// against repeated checkpoints, then proves no acknowledged commit was
// lost across a reopen. Run under -race this also exercises the
// hook/pin/checkpoint locking story.
func TestDurableConcurrentCommitsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, _ := openDurableT(t, dir)
	const writers, perWriter = 4, 25
	rels := make([]*core.Relation, writers)
	for w := range rels {
		rels[w] = core.NewRelation(dScheme(fmt.Sprintf("CC%d", w)))
		st.Put(rels[w])
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				g := core.NewWriteGroup()
				g.Insert(rels[w], dTuple(rels[w].Scheme(), fmt.Sprintf("k%03d", i), int64(i)))
				if err := g.Commit(); err != nil {
					t.Errorf("writer %d group %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			goto drained
		default:
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("checkpoint during writes: %v", err)
			}
		}
	}
drained:
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _ := openDurableT(t, dir)
	for w := 0; w < writers; w++ {
		checkPrefix(t, st2, fmt.Sprintf("CC%d", w), perWriter)
	}
}

// TestMergeStoreDurable: relations created by MergeStore inside the
// group commit are logged with it — a crash right after the merge
// recovers them from the WAL alone.
func TestMergeStoreDurable(t *testing.T) {
	dir := t.TempDir()
	st, _ := openDurableT(t, dir)
	existing := core.NewRelation(dScheme("ME"))
	st.Put(existing)
	commitKV(t, []*core.Relation{existing}, 1)

	src := NewStore()
	srcExisting := core.NewRelation(dScheme("ME"))
	srcExisting.MustInsert(dTuple(srcExisting.Scheme(), "k002", 20))
	src.Put(srcExisting)
	srcFresh := core.NewRelation(dScheme("MF"))
	srcFresh.MustInsert(dTuple(srcFresh.Scheme(), "k001", 10))
	src.Put(srcFresh)

	if err := st.MergeStore(src); err != nil {
		t.Fatal(err)
	}
	crash := cloneDir(t, dir) // no checkpoint between merge and crash
	st2, stats, err := OpenDurable(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if stats.ReplayedGroups != 2 {
		t.Fatalf("replayed %d groups, want 2 (initial + merge)", stats.ReplayedGroups)
	}
	checkPrefix(t, st2, "ME", 2)
	checkPrefix(t, st2, "MF", 1)
}

// TestDirectInsertsDurableAtCheckpoint documents the WAL's scope:
// direct Relation inserts bypass the commit hook and become durable
// only at the next checkpoint.
func TestDirectInsertsDurableAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, _ := openDurableT(t, dir)
	r := core.NewRelation(dScheme("DI"))
	st.Put(r)
	r.MustInsert(dTuple(r.Scheme(), "k001", 1))

	// Not logged: a crash now loses the direct insert.
	st2, _, err := OpenDurable(cloneDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, st2, "DI", 0)
	st2.Close()

	// Checkpointed: the snapshot carries it.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st3, _, err := OpenDurable(cloneDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, st3, "DI", 1)
	st3.Close()
}

// TestWriteGroupSpanningTwoDurableStoresRefused: logging half a group
// into each store would break the committed-prefix invariant on a
// crash between the appends, so the hook refuses outright.
func TestWriteGroupSpanningTwoDurableStoresRefused(t *testing.T) {
	st1, _ := openDurableT(t, t.TempDir())
	st2, _ := openDurableT(t, t.TempDir())
	r1 := core.NewRelation(dScheme("SA"))
	r2 := core.NewRelation(dScheme("SB"))
	st1.Put(r1)
	st2.Put(r2)
	g := core.NewWriteGroup()
	g.Insert(r1, dTuple(r1.Scheme(), "k001", 1))
	g.Insert(r2, dTuple(r2.Scheme(), "k001", 1))
	if err := g.Commit(); err == nil {
		t.Fatal("group spanning two durable stores committed")
	}
	if r1.Cardinality() != 0 || r2.Cardinality() != 0 {
		t.Fatal("refused group still applied tuples")
	}
}

// TestRelationSharedByTwoDurableStores: a relation put into stores A
// and B is logged by B, the store it was put into last. Closing A
// detaches only what A logs, so a group committed afterwards is in B's
// log and a recovery of B's directory has it.
func TestRelationSharedByTwoDurableStores(t *testing.T) {
	dirB := t.TempDir()
	stA, _ := openDurableT(t, t.TempDir())
	stB, _ := openDurableT(t, dirB)
	r := core.NewRelation(dScheme("SHARED"))
	stA.Put(r)
	stB.Put(r)
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}
	commitKV(t, []*core.Relation{r}, 1)

	rec, stats := openDurableT(t, cloneDir(t, dirB))
	if stats.ReplayedGroups != 1 {
		t.Fatalf("B's recovery replayed %d groups, want 1", stats.ReplayedGroups)
	}
	checkPrefix(t, rec, "SHARED", 1)
}

// TestOpenDurableCreatesPrivateState: the store directory and the two
// files in it (snapshot, log) hold the whole database; they are created
// for their owner only (0700 / 0600).
func TestOpenDurableCreatesPrivateState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	st, _ := openDurableT(t, dir)
	a := core.NewRelation(dScheme("DA"))
	st.Put(a)
	commitKV(t, []*core.Relation{a}, 1)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]os.FileMode{
		dir:                              0o700,
		filepath.Join(dir, snapshotFile): 0o600,
		filepath.Join(dir, walFile):      0o600,
	} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if perm := fi.Mode().Perm(); perm != want {
			t.Errorf("%s: mode %o, want %o", path, perm, want)
		}
	}
}

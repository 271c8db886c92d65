package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendT(t *testing.T, l *Log, payload string) uint64 {
	t.Helper()
	lsn, err := l.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return lsn
}

// collect replays the log into (lsn, payload) pairs.
func collect(t *testing.T, l *Log) (lsns []uint64, payloads []string) {
	t.Helper()
	err := l.Replay(func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return lsns, payloads
}

func TestFrameRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	want := []string{"alpha", "", "gamma with a longer payload \x00\xff"}
	for i, p := range want {
		if lsn := appendT(t, l, p); lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn = %d, want %d", i, lsn, i+1)
		}
	}
	lsns, payloads := collect(t, l)
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if payloads[i] != want[i] || lsns[i] != uint64(i+1) {
			t.Errorf("record %d: (%d, %q), want (%d, %q)", i, lsns[i], payloads[i], i+1, want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, the LSN clock continues.
	l2 := openT(t, path)
	if st := l2.Stats(); st.Records != 3 || st.TornBytes != 0 || st.LastLSN != 3 {
		t.Fatalf("reopen stats = %+v", st)
	}
	if lsn := appendT(t, l2, "delta"); lsn != 4 {
		t.Fatalf("append after reopen: lsn = %d, want 4", lsn)
	}
}

func TestCRCRejection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	appendT(t, l, "first record")
	appendT(t, l, "second record")
	size := l.Size()
	l.Close()

	// Flip one payload byte of the second record; recovery must keep
	// exactly the first.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[size-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, path)
	st := l2.Stats()
	if st.Records != 1 || st.TornBytes == 0 {
		t.Fatalf("after corruption: stats = %+v, want 1 record and a torn tail", st)
	}
	if _, payloads := collect(t, l2); len(payloads) != 1 || payloads[0] != "first record" {
		t.Fatalf("after corruption: replayed %q", payloads)
	}
	// The torn tail was physically truncated: appends land cleanly.
	appendT(t, l2, "third record")
	_, payloads := collect(t, l2)
	if len(payloads) != 2 || payloads[1] != "third record" {
		t.Fatalf("append after recovery: replayed %q", payloads)
	}
}

func TestTornTailTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	boundaries := []int64{l.Size()}
	for i := 0; i < 5; i++ {
		appendT(t, l, fmt.Sprintf("record-%d with some padding", i))
		boundaries = append(boundaries, l.Size())
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Cut the file at every byte offset: recovery must always keep the
	// complete-record prefix and nothing else.
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		wantRecords := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				wantRecords = i
			}
		}
		if st := l2.Stats(); st.Records != wantRecords {
			t.Fatalf("cut at %d: recovered %d records, want %d (stats %+v)", cut, st.Records, wantRecords, st)
		}
		lsns, _ := collect(t, l2)
		if len(lsns) != wantRecords {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(lsns), wantRecords)
		}
		l2.Close()
	}
}

func TestTruncateThroughKeepsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	for i := 1; i <= 6; i++ {
		appendT(t, l, fmt.Sprintf("r%d", i))
	}
	if err := l.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	lsns, payloads := collect(t, l)
	if len(lsns) != 2 || lsns[0] != 5 || lsns[1] != 6 || payloads[0] != "r5" || payloads[1] != "r6" {
		t.Fatalf("after TruncateThrough(4): (%v, %q)", lsns, payloads)
	}
	// The LSN clock is unaffected: the next record is 7.
	if lsn := appendT(t, l, "r7"); lsn != 7 {
		t.Fatalf("append after truncate: lsn = %d, want 7", lsn)
	}
	l.Close()
	// And the rewrite is a real file others can reopen.
	l2 := openT(t, path)
	if st := l2.Stats(); st.Records != 3 || st.LastLSN != 7 {
		t.Fatalf("reopen after truncate: stats = %+v", st)
	}
}

func TestResetEmptiesLogAndKeepsClock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	appendT(t, l, "a")
	appendT(t, l, "b")
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if s := l.Size(); s != headerSize {
		t.Fatalf("size after Reset = %d, want %d", s, headerSize)
	}
	if lsn := appendT(t, l, "c"); lsn != 3 {
		t.Fatalf("lsn after Reset = %d, want 3", lsn)
	}
}

func TestEnsureLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	l.EnsureLSN(41)
	if lsn := appendT(t, l, "x"); lsn != 42 {
		t.Fatalf("lsn after EnsureLSN(41) = %d, want 42", lsn)
	}
	l.EnsureLSN(10) // never moves backwards
	if lsn := appendT(t, l, "y"); lsn != 43 {
		t.Fatalf("lsn = %d, want 43", lsn)
	}
}

func TestDamagedHeaderResetsToEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	appendT(t, l, "doomed")
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, path)
	st := l2.Stats()
	if st.Records != 0 || st.TornBytes != int64(len(data)) {
		t.Fatalf("damaged header: stats = %+v", st)
	}
	if lsn := appendT(t, l2, "fresh"); lsn != 1 {
		t.Fatalf("lsn on reset log = %d, want 1", lsn)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	l.Close()
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("Replay after Close succeeded")
	}
}

func TestReplayAbortsOnCallbackError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	appendT(t, l, "one")
	appendT(t, l, "two")
	wantErr := fmt.Errorf("stop here")
	seen := 0
	err := l.Replay(func(uint64, []byte) error {
		seen++
		return wantErr
	})
	if err == nil || seen != 1 {
		t.Fatalf("Replay: err=%v after %d records, want the callback error after 1", err, seen)
	}
}

func TestNoSyncOptionStillFramesCorrectly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&want, "p%d;", i)
		if _, err := l.Append([]byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := l.Replay(func(_ uint64, p []byte) error {
		got.Write(p)
		got.WriteByte(';')
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("replay = %q, want %q", got.String(), want.String())
	}
	l.Close()
}

// TestOpenCreatesPrivateLog: the log holds every committed tuple, so a
// freshly created one is readable and writable by its owner only — and
// stays so across the temp-file-and-rename rewrites.
func TestOpenCreatesPrivateLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	checkMode := func(when string) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if perm := fi.Mode().Perm(); perm != 0o600 {
			t.Fatalf("%s: log mode %o, want 600", when, perm)
		}
	}
	checkMode("after create")
	lsn := appendT(t, l, "a")
	appendT(t, l, "b")
	if err := l.TruncateThrough(lsn); err != nil {
		t.Fatal(err)
	}
	checkMode("after TruncateThrough")
}

package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// File layout. The header is written (and fsynced) when the file is
// created, before any record can be acknowledged, so an intact log
// always starts with it. Each record is framed independently:
//
//	header  := u32 magic "HRWL" | u32 version
//	record  := u32 payloadLen | u32 crc32(payload) | u64 lsn | payload
//
// All integers are little-endian. The CRC covers the payload only; the
// length and LSN fields are validated structurally (bounded by the file
// size, strictly increasing) during the scan.
const (
	logMagic   = 0x4852574c // "HRWL"
	logVersion = 1
	headerSize = 8
	recHeader  = 16
)

// Log metrics: bytes and records appended, the fsync latency every
// durable commit pays, and what recovery found — the numbers an
// operator sizes checkpoint policy against.
var (
	mAppendRecords = obs.Default.Counter("wal.append.records")
	mAppendBytes   = obs.Default.Counter("wal.append.bytes")
	mFsyncNs       = obs.Default.Histogram("wal.append.fsync_ns")
	mOpenRecords   = obs.Default.Counter("wal.recover.records")
	mTornBytes     = obs.Default.Counter("wal.recover.torn_bytes")
)

// Options configures a Log.
type Options struct {
	// NoSync skips the per-append fsync. Appends then survive a process
	// crash only if the OS flushed them, so the durability guarantee is
	// gone — the option exists for tests and for the wal_commit bench
	// variant that isolates fsync cost. Production logs use the default.
	NoSync bool
}

// OpenStats reports what Open found in an existing log file.
type OpenStats struct {
	// Records is the number of intact records in the kept prefix.
	Records int
	// Bytes is the valid log size after recovery, header included.
	Bytes int64
	// TornBytes is how much trailing data was discarded: a torn append
	// from a mid-write kill, or anything after the first corrupt frame.
	TornBytes int64
	// LastLSN is the LSN of the last intact record (0 if none).
	LastLSN uint64
}

// Log is an append-only record log over a single file. All methods are
// safe for concurrent use; appends are serialized, so the file order of
// records is the order Append calls returned.
type Log struct {
	mu    sync.Mutex
	f     *os.File // nil after Close
	path  string
	opts  Options
	size  int64  // file offset past the last intact record
	lsn   uint64 // last LSN assigned or observed
	stats OpenStats
}

// Open opens (or creates) the log at path, scans it for the longest
// prefix of intact records, and truncates the file to that prefix so
// later appends continue from a clean tail. A file whose header itself
// is damaged carries no attributable records; it is reset to an empty
// log (the loss is reported in TornBytes). Under the crash model the
// log is built for — fsync before acknowledge — a damaged header can
// only mean corruption beyond a kill, and an empty prefix is the only
// safe reading.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{f: f, path: path, opts: opts}
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover validates the header, scans the records, and truncates the
// file past the last intact one.
func (l *Log) recover() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	fileSize := info.Size()
	if fileSize < headerSize || !l.headerOK() {
		// Fresh file, or one whose header was destroyed: start empty.
		if fileSize > 0 {
			l.stats.TornBytes = fileSize
			mTornBytes.Add(uint64(fileSize))
		}
		if err := l.writeHeader(); err != nil {
			return err
		}
		l.size = headerSize
		l.stats.Bytes = headerSize
		return nil
	}
	end, n, last, err := scanRecords(l.f, fileSize, nil)
	if err != nil {
		return err
	}
	l.size, l.lsn = end, last
	l.stats = OpenStats{Records: n, Bytes: end, TornBytes: fileSize - end, LastLSN: last}
	mOpenRecords.Add(uint64(n))
	if end < fileSize {
		mTornBytes.Add(uint64(fileSize - end))
		if err := l.f.Truncate(end); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	return nil
}

// headerOK reads and validates the file header.
func (l *Log) headerOK() bool {
	var hdr [headerSize]byte
	if _, err := l.f.ReadAt(hdr[:], 0); err != nil {
		return false
	}
	return binary.LittleEndian.Uint32(hdr[0:4]) == logMagic &&
		binary.LittleEndian.Uint32(hdr[4:8]) == logVersion
}

// writeHeader resets the file to an empty log: header only, fsynced
// before any append can be acknowledged on top of it.
func (l *Log) writeHeader() error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], logVersion)
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: write header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync header: %w", err)
	}
	return nil
}

// scanRecords walks the records of r from the header to the first
// frame that is torn (runs past limit) or corrupt (CRC mismatch, or an
// LSN that fails to increase). It returns the offset just past the
// last intact record, the record count, and the last LSN. When fn is
// non-nil it receives each intact record; the payload slice is reused
// between calls. A non-nil error from fn aborts the scan and is
// returned as-is.
func scanRecords(r io.ReaderAt, limit int64, fn func(lsn uint64, payload []byte) error) (end int64, n int, lastLSN uint64, err error) {
	end = headerSize
	var hdr [recHeader]byte
	var payload []byte
	for {
		if end+recHeader > limit {
			return end, n, lastLSN, nil
		}
		if _, err := r.ReadAt(hdr[:], end); err != nil {
			return end, n, lastLSN, nil
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		lsn := binary.LittleEndian.Uint64(hdr[8:16])
		// Structural validation before any allocation: the length must
		// fit inside the file, so a corrupt length field cannot trigger
		// a giant read, and the LSN must strictly increase.
		if end+recHeader+length > limit || lsn <= lastLSN {
			return end, n, lastLSN, nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := r.ReadAt(payload, end+recHeader); err != nil {
			return end, n, lastLSN, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return end, n, lastLSN, nil
		}
		if fn != nil {
			if ferr := fn(lsn, payload); ferr != nil {
				return end, n, lastLSN, ferr
			}
		}
		end += recHeader + length
		n++
		lastLSN = lsn
	}
}

// Stats returns what Open found in the file.
func (l *Log) Stats() OpenStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Size returns the current valid log size in bytes, header included.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// LastLSN returns the highest LSN assigned or observed so far.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// EnsureLSN raises the log's LSN clock to at least min, so records
// appended after a checkpoint restore carry LSNs above the snapshot's.
func (l *Log) EnsureLSN(min uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lsn < min {
		l.lsn = min
	}
}

// Replay streams every intact record to fn in append order. The
// payload slice is only valid during the call. Replay re-validates
// every frame, so it may be called on a log another process wrote.
func (l *Log) Replay(fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed(l)
	}
	_, _, _, err := scanRecords(l.f, l.size, fn)
	return err
}

// Append frames payload under the next LSN, writes it in one
// contiguous write, and (unless NoSync) fsyncs before returning — the
// write-ahead point: once Append returns, the record survives a kill.
// The returned LSN orders the record against every other append and
// against checkpoint snapshots.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errClosed(l)
	}
	lsn := l.lsn + 1
	rec := make([]byte, recHeader+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(rec[8:16], lsn)
	copy(rec[recHeader:], payload)
	if _, err := l.f.WriteAt(rec, l.size); err != nil {
		// Leave no partial frame behind the valid size; best effort —
		// recovery would discard it as a torn tail anyway.
		l.f.Truncate(l.size)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if !l.opts.NoSync {
		t0 := time.Now()
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		mFsyncNs.ObserveSince(t0)
	}
	l.size += int64(len(rec))
	l.lsn = lsn
	mAppendRecords.Inc()
	mAppendBytes.Add(uint64(len(rec)))
	return lsn, nil
}

// TruncateThrough atomically discards every record with an LSN at or
// below lsn — the checkpoint commit point: the caller has made those
// records durable elsewhere (a snapshot file stamped with lsn), so the
// log can shed them. Records above lsn (appended while the snapshot
// was being written) survive. The rewrite goes through a temp file and
// a rename, so a kill at any instant leaves either the old log or the
// new one — never a half-truncated file. The LSN clock is unaffected.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed(l)
	}
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, ".wal-truncate-*")
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], logVersion)
	if _, err := tmp.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	// Copy the surviving tail. Frames are rebuilt rather than blindly
	// byte-copied so the survivor file is valid by construction.
	_, _, _, err = scanRecords(l.f, l.size, func(recLSN uint64, payload []byte) error {
		if recLSN <= lsn {
			return nil
		}
		rec := make([]byte, recHeader+len(payload))
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint64(rec[8:16], recLSN)
		copy(rec[recHeader:], payload)
		_, werr := tmp.Write(rec)
		return werr
	})
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	newSize, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return fmt.Errorf("wal: truncate rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// The temp handle now refers to the file living at l.path; swap it
	// in and drop the old inode.
	l.f.Close()
	l.f, tmp = tmp, nil
	l.size = newSize
	return nil
}

// Reset discards every record — TruncateThrough past the newest LSN.
func (l *Log) Reset() error {
	return l.TruncateThrough(^uint64(0))
}

// Close fsyncs and closes the file. Further appends fail, which aborts
// (rather than silently un-logs) any write group still racing a store
// shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

func errClosed(l *Log) error {
	return fmt.Errorf("wal: log %s is closed", l.path)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

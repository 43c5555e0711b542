// Package wal is a write-ahead log with compacting snapshots — the
// durability layer under the keyed placement tier (internal/keyed).
//
// # Format
//
// A log directory holds numbered segment files and at most a handful
// of snapshot files (normally one):
//
//	wal-<firstseq>.log    append-only record segments
//	snap-<seq>.snap       full-state snapshot covering records ≤ seq
//
// Each record is framed as
//
//	[4B payload len][4B CRC-32 (IEEE) over seq+payload][8B seq][payload]
//
// with all integers little-endian and seq strictly increasing from 1.
// A snapshot file is [8B magic "BBSNAP1\n"][8B seq][4B CRC][payload].
//
// # Recovery contract
//
// Open loads the newest snapshot whose checksum verifies, then scans
// the segments for records with seq beyond it. Scanning is
// prefix-exact: the first frame that is short, fails its CRC, or
// carries a non-successor sequence number ends recovery — everything
// before it is replayed, everything at and after it (a torn append, a
// corrupted tail, a segment written after the torn one) is discarded
// and truncated away so subsequent appends extend the valid prefix.
// Recovery never panics on corrupt input; arbitrary bytes in the
// directory at worst shorten the recovered prefix.
//
// A snapshot is written to a temporary file, fsynced, and renamed into
// place before old segments are pruned, so a crash at any point —
// including between the rename and the prune, exercised by the
// crash-point tests — leaves either the old snapshot with its full log
// or the new snapshot with a redundant (skipped on replay) log prefix.
//
// # Fsync policy
//
// SyncAlways fsyncs every append before it is acknowledged (no
// acknowledged record is ever lost); SyncInterval fsyncs on a
// background tick (bounded data loss, near-zero overhead); SyncNever
// leaves flushing to the OS. Snapshots and renames are always fsynced
// regardless of mode.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Sync policies for Options.Fsync.
const (
	SyncAlways   = "always"
	SyncInterval = "interval"
	SyncNever    = "never"
)

const (
	frameHeader = 16 // len + crc + seq
	snapMagic   = "BBSNAP1\n"
	segPrefix   = "wal-"
	segSuffix   = ".log"
	snapPrefix  = "snap-"
	snapSuffix  = ".snap"

	// MaxRecord bounds a single payload; a length field beyond it is
	// treated as corruption, so a torn length prefix cannot drive a
	// multi-gigabyte allocation during recovery.
	MaxRecord = 1 << 24
)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// Options configures Open.
type Options struct {
	// Fsync is the append durability policy: SyncAlways, SyncInterval
	// or SyncNever (default SyncInterval).
	Fsync string
}

// fsyncEvery is the background flush period for SyncInterval.
const fsyncEvery = 100 * time.Millisecond

// Record is one recovered log entry.
type Record struct {
	Seq  uint64
	Data []byte
}

// Recovery describes what Open reconstructed from the directory.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload (nil if none) and
	// SnapshotSeq the sequence number it covers.
	Snapshot    []byte
	SnapshotSeq uint64
	// Records are the valid log records beyond the snapshot, in order.
	Records []Record
	// TornBytes counts bytes discarded from the log tail (torn or
	// corrupt frames and anything after them).
	TornBytes int64
}

// Stats is the durability monitoring block, served under "durability"
// in /v1/stats and as bb_wal_* Prometheus series.
type Stats struct {
	Fsync    string `json:"fsync"`
	LogBytes int64  `json:"log_bytes"`
	Segments int    `json:"segments"`
	// Records counts appends acknowledged this process lifetime;
	// RecordsSinceSnapshot resets at each snapshot.
	Records              int64 `json:"records"`
	RecordsSinceSnapshot int64 `json:"records_since_snapshot"`
	Snapshots            int64 `json:"snapshots"`
	// LastFsyncAgeMs is the age of the last fsync (-1 before any).
	LastFsyncAgeMs int64 `json:"last_fsync_age_ms"`
	// Recovery facts from Open: records replayed, snapshot sequence
	// they extended, bytes discarded at the torn tail, and the replay
	// wall time (set by the owner via SetRecoveryMs once the recovered
	// state is live).
	RecoveredRecords    int64  `json:"recovered_records"`
	RecoverySnapshotSeq uint64 `json:"recovery_snapshot_seq"`
	RecoveryTornBytes   int64  `json:"recovery_torn_bytes"`
	RecoveryReplayMs    int64  `json:"recovery_replay_ms"`
}

// Log is an append-only record log over a directory. Safe for
// concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f       *os.File // active segment
	size    int64    // active segment size
	allSize int64    // total bytes across segments
	segs    []string // live segment paths, oldest first (incl. active)
	lastSeq uint64
	snapSeq uint64 // seq covered by the newest durable snapshot

	records    int64
	sinceSnap  int64
	snapshots  int64
	lastFsync  time.Time
	recovered  int64
	recSnapSeq uint64
	tornBytes  int64
	replayMs   int64

	closed bool
	stopC  chan struct{}
	doneC  chan struct{}
}

// Open opens (creating if needed) the log directory, recovers its
// contents, truncates any torn tail, and returns a Log ready to
// append after the valid prefix.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	switch opts.Fsync {
	case "":
		opts.Fsync = SyncInterval
	case SyncAlways, SyncInterval, SyncNever:
	default:
		return nil, nil, fmt.Errorf("wal: unknown fsync policy %q", opts.Fsync)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opts: opts, stopC: make(chan struct{}), doneC: make(chan struct{})}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if l.f == nil {
		if err := l.openSegment(l.lastSeq + 1); err != nil {
			return nil, nil, err
		}
	}
	if opts.Fsync == SyncInterval {
		go l.flushLoop()
	} else {
		close(l.doneC)
	}
	return l, rec, nil
}

// recover scans the directory: newest valid snapshot, then the valid
// record prefix of the segments, truncating the first invalid frame
// and deleting everything after it.
func (l *Log) recover() (*Recovery, error) {
	names, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segStarts []uint64
	var snapSeqs []uint64
	for _, de := range names {
		n := de.Name()
		switch {
		case strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix):
			if v, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, segPrefix), segSuffix), 16, 64); perr == nil {
				segStarts = append(segStarts, v)
			}
		case strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix):
			if v, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, snapPrefix), snapSuffix), 16, 64); perr == nil {
				snapSeqs = append(snapSeqs, v)
			}
		}
	}
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] }) // newest first

	rec := &Recovery{}
	for _, sq := range snapSeqs {
		data, ok := readSnapshot(l.snapPath(sq))
		if ok {
			rec.Snapshot, rec.SnapshotSeq = data, sq
			break
		}
		// An unreadable snapshot (torn tmp-rename race, bit rot) is
		// skipped; an older snapshot plus a longer log replay covers
		// the same state.
	}
	l.snapSeq = rec.SnapshotSeq
	l.lastSeq = rec.SnapshotSeq

	// Scan segments in order for the contiguous valid record suffix.
	torn := false
	for i, start := range segStarts {
		path := l.segPath(start)
		if torn {
			// Everything after a torn segment is beyond the valid
			// prefix: count and delete.
			if fi, serr := os.Stat(path); serr == nil {
				rec.TornBytes += fi.Size()
			}
			os.Remove(path)
			continue
		}
		validLen, fileLen, recs := scanSegment(path, l.lastSeq, rec.SnapshotSeq)
		rec.Records = append(rec.Records, recs...)
		if n := len(recs); n > 0 {
			l.lastSeq = recs[n-1].Seq
		}
		if validLen < fileLen {
			torn = true
			rec.TornBytes += fileLen - validLen
			if validLen == 0 && i > 0 {
				os.Remove(path)
				continue
			}
			if err := os.Truncate(path, validLen); err != nil {
				return nil, err
			}
		}
		if validLen > 0 || i == len(segStarts)-1 {
			l.segs = append(l.segs, path)
			l.allSize += validLen
		} else {
			os.Remove(path)
		}
	}
	// Reopen the last surviving segment for appending.
	if n := len(l.segs); n > 0 {
		f, err := os.OpenFile(l.segs[n-1], os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.size = f, size
	}
	l.recovered = int64(len(rec.Records))
	l.recSnapSeq = rec.SnapshotSeq
	l.tornBytes = rec.TornBytes
	return rec, nil
}

// scanSegment reads the contiguous valid frame prefix of one segment.
// lastSeq is the sequence number of the last record accepted so far
// (records must continue lastSeq+1, lastSeq+2, ...); records with
// seq <= snapSeq are validated and skipped (already in the snapshot).
// It returns the valid byte length, the file length, and the records
// beyond the snapshot. A missing or unreadable file scans as empty.
func scanSegment(path string, lastSeq, snapSeq uint64) (validLen, fileLen int64, recs []Record) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		fileLen = fi.Size()
	}
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return validLen, fileLen, recs
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		seq := binary.LittleEndian.Uint64(hdr[8:16])
		if n > MaxRecord {
			return validLen, fileLen, recs
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return validLen, fileLen, recs
		}
		if crc32.ChecksumIEEE(append(hdr[8:16:16], payload...)) != crc {
			return validLen, fileLen, recs
		}
		if seq <= snapSeq {
			// Pre-snapshot record in a not-yet-pruned segment: valid,
			// already covered by the snapshot.
			if seq > lastSeq {
				lastSeq = seq
			}
			validLen += frameHeader + int64(n)
			continue
		}
		if seq != lastSeq+1 {
			return validLen, fileLen, recs
		}
		lastSeq = seq
		recs = append(recs, Record{Seq: seq, Data: payload})
		validLen += frameHeader + int64(n)
	}
}

func readSnapshot(path string) ([]byte, bool) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < len(snapMagic)+12 || string(b[:len(snapMagic)]) != snapMagic {
		return nil, false
	}
	off := len(snapMagic)
	crc := binary.LittleEndian.Uint32(b[off+8 : off+12])
	data := b[off+12:]
	if crc32.ChecksumIEEE(data) != crc {
		return nil, false
	}
	return data, true
}

func (l *Log) segPath(start uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix))
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

// openSegment creates the segment whose first record will be seq and
// makes it the append target.
func (l *Log) openSegment(seq uint64) error {
	path := l.segPath(seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if l.f != nil {
		l.f.Sync()
		l.f.Close()
	}
	l.f, l.size = f, 0
	l.segs = append(l.segs, path)
	return syncDir(l.dir)
}

// Append writes one record and returns its sequence number. Under
// SyncAlways the record is fsynced before Append returns.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	seq := l.lastSeq + 1
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[8:16], seq)
	copy(frame[frameHeader:], payload)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	// Crash point: persist a torn half-frame, then die — the disk
	// state a power cut mid-append leaves behind. The prelude runs
	// only on the firing hit, so earlier appends stay clean.
	if err := faultinject.HitWith("wal.append.partial", func() {
		l.f.Write(frame[:len(frame)/2])
		l.f.Sync()
	}); err != nil {
		return 0, err
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, err
	}
	l.size += int64(len(frame))
	l.allSize += int64(len(frame))
	l.lastSeq = seq
	l.records++
	l.sinceSnap++
	if l.opts.Fsync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

func (l *Log) syncLocked() error {
	if err := faultinject.Hit("wal.fsync"); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.lastFsync = time.Now()
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) flushLoop() {
	defer close(l.doneC)
	t := time.NewTicker(fsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopC:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// WriteSnapshot makes data the log's new base state: it covers every
// record appended so far, so once it is durably in place the old
// segments are pruned and a fresh segment begins. The write is
// tmp-file + fsync + atomic rename + directory fsync; crash points
// cover each step.
func (l *Log) WriteSnapshot(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.writeSnapshotLocked(data)
}

func (l *Log) writeSnapshotLocked(data []byte) error {
	// The snapshot must cover every acknowledged record: flush the log
	// first so "snapshot covers seq" never outruns what is on disk.
	if err := l.syncLocked(); err != nil {
		return err
	}
	seq := l.lastSeq
	final := l.snapPath(seq)
	tmp := final + ".tmp"
	buf := make([]byte, len(snapMagic)+12+len(data))
	copy(buf, snapMagic)
	off := len(snapMagic)
	binary.LittleEndian.PutUint64(buf[off:off+8], seq)
	binary.LittleEndian.PutUint32(buf[off+8:off+12], crc32.ChecksumIEEE(data))
	copy(buf[off+12:], data)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := faultinject.HitWith("wal.snapshot.partial", func() {
		f.Write(buf[:len(buf)/2])
		f.Sync()
	}); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	f.Close()
	if err := faultinject.Hit("wal.snapshot.rename"); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	prevSnap := l.snapSeq
	l.snapSeq = seq
	l.snapshots++
	l.sinceSnap = 0
	if err := faultinject.Hit("wal.snapshot.prune"); err != nil {
		return err
	}
	// Rotate to a fresh segment, then prune everything the snapshot
	// covers: old segments and the previous snapshot.
	if err := l.openSegment(seq + 1); err != nil {
		return err
	}
	live := l.segs[len(l.segs)-1:]
	for _, p := range l.segs[:len(l.segs)-1] {
		os.Remove(p)
	}
	l.segs = append([]string(nil), live...)
	l.allSize = l.size
	if prevSnap != seq {
		os.Remove(l.snapPath(prevSnap))
	}
	return syncDir(l.dir)
}

// SetRecoveryMs records how long the owner's full recovery (snapshot
// decode + record replay) took, for the durability stats block.
func (l *Log) SetRecoveryMs(ms int64) {
	l.mu.Lock()
	l.replayMs = ms
	l.mu.Unlock()
}

// Stats returns the durability monitoring block.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Fsync:                l.opts.Fsync,
		LogBytes:             l.allSize,
		Segments:             len(l.segs),
		Records:              l.records,
		RecordsSinceSnapshot: l.sinceSnap,
		Snapshots:            l.snapshots,
		LastFsyncAgeMs:       -1,
		RecoveredRecords:     l.recovered,
		RecoverySnapshotSeq:  l.recSnapSeq,
		RecoveryTornBytes:    l.tornBytes,
		RecoveryReplayMs:     l.replayMs,
	}
	if !l.lastFsync.IsZero() {
		st.LastFsyncAgeMs = time.Since(l.lastFsync).Milliseconds()
	}
	return st
}

// Close flushes and closes the log. If finalSnapshot is non-nil its
// result becomes a final compacting snapshot first — the clean
// shutdown path, leaving recovery a snapshot and an empty log.
func (l *Log) Close(finalSnapshot func() []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if finalSnapshot != nil {
		// The state function runs outside our lock discipline concerns:
		// callers pass a closure that locks their own state.
		l.mu.Unlock()
		data := finalSnapshot()
		l.mu.Lock()
		if !l.closed {
			err = l.writeSnapshotLocked(data)
		}
	}
	l.closed = true
	close(l.stopC)
	if serr := l.f.Sync(); err == nil && serr != nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.mu.Unlock()
	<-l.doneC
	return err
}

// Abort closes file handles without flushing or snapshotting — the
// crash-simulation hook used by restart scenarios: recovery sees
// whatever the fsync policy happened to leave durable.
func (l *Log) Abort() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.stopC)
		l.f.Close()
	}
	l.mu.Unlock()
	<-l.doneC
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

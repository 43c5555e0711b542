package keyed

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// Dir is the WAL directory. Required.
	Dir string
	// SnapshotEvery is how many journal records accumulate before a
	// compacting snapshot is written in the background (default 4096;
	// negative disables auto-snapshots).
	SnapshotEvery int
	// Fsync is the append durability policy (wal.SyncAlways,
	// wal.SyncInterval, wal.SyncNever; default interval, flushed every
	// 100ms).
	Fsync string
}

// DefaultSnapshotEvery is StoreOptions.SnapshotEvery's zero-value
// default.
const DefaultSnapshotEvery = 4096

// Store is a durable KeyMap: every structural mutation is journaled
// to a WAL before the mutex is released, and periodic compacting
// snapshots bound both log growth and recovery time. OpenStore
// recovers the exact pre-crash assignment (see Mirror for the precise
// contract) before returning, so the map is ready to route.
type Store struct {
	// M is the recovered, journaling KeyMap. Route/Release/SetDown/…
	// on it persist automatically.
	M *KeyMap

	log        *wal.Log
	every      int64
	pending    int64 // records since last snapshot (atomic)
	appendErrs int64 // journal appends that failed (atomic)
	recoverMs  int64
	closed     atomic.Bool

	snapC chan struct{}
	stopC chan struct{}
	doneC chan struct{}
}

// RecoveryInfo summarizes what OpenStore reconstructed.
type RecoveryInfo struct {
	// SnapshotKeys is the number of keys restored from the snapshot;
	// ReplayedRecords the journal records applied on top.
	SnapshotKeys    int64
	ReplayedRecords int64
	// ReplayMs is the wall time of the whole recovery (snapshot decode
	// + replay).
	ReplayMs int64
}

// OpenStore opens (creating if needed) the WAL in o.Dir, rebuilds the
// KeyMap from its newest snapshot plus journal replay, and returns a
// Store whose map journals every further mutation. Recovery is
// complete when OpenStore returns — callers should not serve traffic
// while it runs (daemons hold /healthz at 503 until then).
func OpenStore(cfg Config, o StoreOptions) (*Store, *RecoveryInfo, error) {
	if o.Dir == "" {
		return nil, nil, fmt.Errorf("keyed: OpenStore needs a directory")
	}
	every := int64(o.SnapshotEvery)
	if every == 0 {
		every = DefaultSnapshotEvery
	}
	l, rec, err := wal.Open(o.Dir, wal.Options{Fsync: o.Fsync})
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	m := New(cfg)
	info := &RecoveryInfo{}
	if rec.Snapshot != nil {
		if err := m.RestoreSnapshot(rec.Snapshot); err != nil {
			l.Close(nil)
			return nil, nil, err
		}
		info.SnapshotKeys = int64(len(m.entries))
	}
	for _, r := range rec.Records {
		op, derr := DecodeOp(r.Data)
		if derr != nil {
			l.Close(nil)
			return nil, nil, fmt.Errorf("keyed: journal record %d: %w", r.Seq, derr)
		}
		if aerr := m.Apply(op); aerr != nil {
			l.Close(nil)
			return nil, nil, fmt.Errorf("keyed: journal record %d: %w", r.Seq, aerr)
		}
		info.ReplayedRecords++
	}
	info.ReplayMs = time.Since(start).Milliseconds()
	l.SetRecoveryMs(info.ReplayMs)
	s := &Store{
		M:         m,
		log:       l,
		every:     every,
		recoverMs: info.ReplayMs,
		snapC:     make(chan struct{}, 1),
		stopC:     make(chan struct{}),
		doneC:     make(chan struct{}),
	}
	m.SetJournal(s.append)
	go s.snapshotLoop()
	return s, info, nil
}

// append is the journal hook: called under the KeyMap's mutex for
// every structural mutation. Append errors cannot unwind the mutation
// (it already happened), so they are counted and surfaced in the
// durability stats instead — the operator's signal that the disk is
// no longer keeping up with the map.
func (s *Store) append(op Op) {
	if _, err := s.log.Append(EncodeOp(op)); err != nil {
		atomic.AddInt64(&s.appendErrs, 1)
		return
	}
	if atomic.AddInt64(&s.pending, 1) >= s.every && s.every > 0 {
		select {
		case s.snapC <- struct{}{}:
		default:
		}
	}
}

// snapshotLoop writes compacting snapshots when enough records have
// accumulated. It runs outside the map's mutex and takes it only for
// the encode+persist critical section (SnapshotTo).
func (s *Store) snapshotLoop() {
	defer close(s.doneC)
	for {
		select {
		case <-s.stopC:
			return
		case <-s.snapC:
			if atomic.LoadInt64(&s.pending) < s.every {
				continue // already compacted by a racing snapshot
			}
			s.Snapshot()
		}
	}
}

// Snapshot writes a compacting snapshot now. The map's mutex is held
// across encode and persist, so the snapshot is exactly consistent
// with the log position it claims to cover.
func (s *Store) Snapshot() error {
	err := s.M.SnapshotTo(s.log.WriteSnapshot)
	if err == nil {
		atomic.StoreInt64(&s.pending, 0)
	}
	return err
}

// Durability returns the monitoring block: the WAL's stats plus the
// store's journal-append error count.
func (s *Store) Durability() DurabilityStats {
	return DurabilityStats{
		Stats:        s.log.Stats(),
		AppendErrors: atomic.LoadInt64(&s.appendErrs),
	}
}

// DurabilityStats is the JSON durability block served by /v1/stats.
type DurabilityStats struct {
	wal.Stats
	// AppendErrors counts journal appends that failed after their
	// mutation was already applied — should stay 0.
	AppendErrors int64 `json:"append_errors"`
}

// Close writes a final compacting snapshot and closes the log — the
// clean-shutdown (SIGTERM drain) path. After Close the map keeps
// working in memory but no longer persists; callers stop traffic
// first. Close is idempotent.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stopC)
	<-s.doneC
	err := s.Snapshot()
	s.M.SetJournal(nil)
	if cerr := s.log.Close(nil); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the store without flushing or snapshotting — the
// crash-simulation hook for restart scenarios: recovery sees only
// what the fsync policy already made durable. Idempotent.
func (s *Store) Crash() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.stopC)
	<-s.doneC
	s.M.SetJournal(nil)
	s.log.Abort()
}

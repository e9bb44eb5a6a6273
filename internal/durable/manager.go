package durable

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
)

// Manager ties the write-ahead Journal and the DiskStore into one durability
// layer for a daemon: it implements engine.JournalSink (so the job store
// feeds it lifecycle transitions), publishes completed results into the
// content-addressed store, and replays the journal at startup.
//
// Publication order is the crash-safety invariant: a done result is written
// to the store BEFORE its done record is appended to the journal. A crash
// between the two leaves the journal at accepted/running with the store
// already populated — exactly the window the replay idempotency guard
// covers by serving the stored result instead of recomputing.
type Manager struct {
	journal *Journal
	store   *DiskStore
	killed  atomic.Bool
	replay  atomic.Pointer[ReplayStats]
}

// NewManager wraps an open journal and disk store. Either may be nil
// (journal-only or store-only operation); a fully nil manager is valid and
// inert, so call sites need no guards.
func NewManager(journal *Journal, store *DiskStore) *Manager {
	return &Manager{journal: journal, store: store}
}

// Journal returns the underlying journal (nil when journaling is off).
func (m *Manager) Journal() *Journal {
	if m == nil {
		return nil
	}
	return m.journal
}

// Store returns the underlying disk store (nil when persistence is off).
func (m *Manager) Store() *DiskStore {
	if m == nil {
		return nil
	}
	return m.store
}

// Kill simulates a SIGKILL for crash tests: every subsequent journal append
// and store publication is silently dropped, as if the process had died.
func (m *Manager) Kill() {
	if m == nil {
		return
	}
	m.killed.Store(true)
	m.journal.Kill()
}

// Accepted implements engine.JournalSink: the full job spec is journaled
// so a replay can re-enqueue it.
func (m *Manager) Accepted(rec *engine.JobRecord, job engine.Job) {
	if m == nil || m.killed.Load() {
		return
	}
	j := job
	_ = m.journal.Append(Record{
		T:           RecAccepted,
		ID:          rec.ID,
		Kind:        rec.Kind,
		Fingerprint: rec.Fingerprint,
		Job:         &j,
		TS:          rec.Submitted,
	})
}

// Running implements engine.JournalSink.
func (m *Manager) Running(id string) {
	if m == nil || m.killed.Load() {
		return
	}
	_ = m.journal.Append(Record{T: RecRunning, ID: id})
}

// Finished implements engine.JournalSink: done results are published to the
// store first (see the Manager comment for why order matters), then the
// terminal record is appended. Failed jobs journal the error and its
// resilience class; nothing of a failure is ever written to the store.
func (m *Manager) Finished(rec *engine.JobRecord) {
	if m == nil || m.killed.Load() {
		return
	}
	switch rec.Status {
	case engine.StatusDone:
		m.Publish(rec.Fingerprint, rec.Result)
		_ = m.journal.Append(Record{
			T:           RecDone,
			ID:          rec.ID,
			Kind:        rec.Kind,
			Fingerprint: rec.Fingerprint,
			TS:          rec.Finished,
		})
	case engine.StatusFailed:
		_ = m.journal.Append(Record{
			T:           RecFailed,
			ID:          rec.ID,
			Kind:        rec.Kind,
			Fingerprint: rec.Fingerprint,
			Error:       rec.Err,
			Class:       rec.ErrClass,
			TS:          rec.Finished,
		})
	}
}

// Publish writes a completed result into the disk store under its job
// fingerprint, by engine.EncodeResult's rule: run-report telemetry is
// stripped and partial results are never persisted. Errors degrade
// durability, not availability: the job still completes.
func (m *Manager) Publish(key string, res *engine.Result) {
	if m == nil || m.killed.Load() || m.store == nil || key == "" {
		return
	}
	if data, ok := engine.EncodeResult(res); ok {
		_ = m.store.Put(context.TODO(), key, data)
	}
}

// Lookup returns the result stored under a job fingerprint for a job of
// the given kind, or nil when the store has no valid entry: missing,
// evicted, quarantined-corrupt, or not a result of that kind by
// engine.DecodeResult's rule. All of these read as "recompute".
func (m *Manager) Lookup(ctx context.Context, key, kind string) *engine.Result {
	if m == nil || m.store == nil || key == "" {
		return nil
	}
	data, err := m.store.Get(ctx, key)
	if err != nil {
		return nil
	}
	return engine.DecodeResult(data, kind)
}

// ReplayStats accounts one journal replay.
type ReplayStats struct {
	// Records is the number of parseable journal records read.
	Records int `json:"records"`
	// Torn is the number of unparsable lines skipped (crash footprints).
	Torn int `json:"torn,omitempty"`
	// Jobs is the number of distinct job IDs seen.
	Jobs int `json:"jobs"`
	// Restored is the number of terminal records reinstated without
	// recomputation (done results served from the store, failures as-is).
	Restored int `json:"restored"`
	// Served is the subset of Restored whose result came from the disk
	// store — including accepted-but-unfinished jobs caught by the
	// idempotency guard (result already stored; served, not recomputed).
	Served int `json:"served"`
	// Requeued is the number of jobs re-enqueued for recomputation.
	Requeued int `json:"requeued"`
}

// replayJob is the folded journal state of one job ID.
type replayJob struct {
	id       string
	kind     string
	fp       string
	job      *engine.Job
	status   string // last record type seen
	errMsg   string
	errClass string
	rec      Record // accepted record (for timestamps)
	finished Record // terminal record, if any
}

// Replay reads the journal and reconciles the job store with it: jobs with
// a terminal record are restored (done results re-read from the disk store,
// byte-identical to what the pre-crash process computed; failures restored
// with their recorded class), and accepted-but-unfinished jobs are
// re-enqueued on the runner — unless their result is already in the store,
// in which case the idempotency guard restores it as done instead of
// recomputing. Jobs whose failure class is "cancelled" were interrupted by
// shutdown, not rejected by the work itself, so they are re-enqueued too.
//
// Replay appends nothing; re-enqueued jobs journal fresh running/finished
// records under their original IDs as they complete.
func (m *Manager) Replay(ctx context.Context, st *engine.Store, r *engine.Runner) (ReplayStats, error) {
	var stats ReplayStats
	if m == nil || m.journal == nil {
		return stats, nil
	}
	recs, torn, err := ReadJournal(m.journal.Path())
	stats.Torn = torn
	if err != nil {
		return stats, err
	}
	stats.Records = len(recs)

	// Fold records per job ID, preserving first-appearance order so
	// restored/re-enqueued IDs keep their original submission order.
	var order []string
	jobs := make(map[string]*replayJob)
	for _, rec := range recs {
		cJournalReplays.Inc()
		j, ok := jobs[rec.ID]
		if !ok {
			j = &replayJob{id: rec.ID}
			jobs[rec.ID] = j
			order = append(order, rec.ID)
		}
		if rec.Kind != "" {
			j.kind = rec.Kind
		}
		if rec.Fingerprint != "" {
			j.fp = rec.Fingerprint
		}
		switch rec.T {
		case RecAccepted:
			j.job = rec.Job
			j.rec = rec
		case RecDone, RecFailed:
			j.finished = rec
			j.errMsg, j.errClass = rec.Error, rec.Class
		}
		j.status = rec.T
	}
	stats.Jobs = len(jobs)

	var firstErr error
	for _, id := range order {
		j := jobs[id]
		if j.status == RecFailed && j.errClass != "cancelled" {
			// A genuine failure: deterministic work would fail again, so
			// restore the verdict rather than burning the work twice.
			if err := st.Restore(m.terminalRecord(j, engine.StatusFailed, nil)); err == nil {
				stats.Restored++
				continue
			}
		} else if res := m.Lookup(ctx, j.fp, j.kind); res != nil {
			// Completed before the crash — or, for a job accepted or
			// running at the crash (or cancelled by shutdown), the
			// idempotency guard: a result already in the store means the
			// job finished but died before its done record landed. Either
			// way, serve the stored result.
			if err := st.Restore(m.terminalRecord(j, engine.StatusDone, res)); err == nil {
				stats.Restored++
				stats.Served++
				cDiskRecovered.Inc()
				continue
			}
		}
		// Anything not restored — a missing, corrupt or foreign store
		// entry, or a record the job store refused — is recomputed.
		m.requeue(ctx, st, r, j, &stats, &firstErr)
	}
	return stats, firstErr
}

// requeue re-enqueues one replayed job under its original ID. A job whose
// accepted record is missing (torn journal head) cannot be re-run; that is
// reported but does not abort the rest of the replay.
func (m *Manager) requeue(ctx context.Context, st *engine.Store, r *engine.Runner, j *replayJob, stats *ReplayStats, firstErr *error) {
	if j.job == nil {
		if *firstErr == nil {
			*firstErr = fmt.Errorf("durable: job %s has no replayable spec (torn accepted record)", j.id)
		}
		return
	}
	if _, err := st.Resubmit(ctx, r, *j.job, j.id); err != nil {
		if *firstErr == nil {
			*firstErr = fmt.Errorf("durable: requeue %s: %w", j.id, err)
		}
		return
	}
	stats.Requeued++
	cJournalRequeue.Inc()
}

// terminalRecord builds the restored engine record for a replayed job,
// carrying the journal's timestamps through.
func (m *Manager) terminalRecord(j *replayJob, status string, res *engine.Result) *engine.JobRecord {
	rec := &engine.JobRecord{
		ID:          j.id,
		Kind:        j.kind,
		Fingerprint: j.fp,
		Status:      status,
		Submitted:   j.rec.TS,
		Finished:    j.finished.TS,
		Result:      res,
	}
	if status == engine.StatusFailed {
		rec.Err, rec.ErrClass = j.errMsg, j.errClass
	}
	return rec
}

// DebugStats is the durable section of /v1/debug.
type DebugStats struct {
	Store    *StoreStats  `json:"store,omitempty"`
	Journal  string       `json:"journal,omitempty"`
	Appended int64        `json:"journal_appended,omitempty"`
	Replay   *ReplayStats `json:"replay,omitempty"`
}

// Debug snapshots the manager for /v1/debug; replay is the stats recorded
// by SetReplay (the boot-time replay), nil before then.
func (m *Manager) Debug() *DebugStats {
	if m == nil {
		return nil
	}
	d := &DebugStats{}
	if m.store != nil {
		st := m.store.Stats()
		d.Store = &st
	}
	if m.journal != nil {
		d.Journal = m.journal.Path()
		d.Appended = m.journal.Appended()
	}
	if r := m.replay.Load(); r != nil {
		d.Replay = r
	}
	return d
}

// SetReplay records the boot-time replay stats for Debug.
func (m *Manager) SetReplay(s ReplayStats) {
	if m == nil {
		return
	}
	m.replay.Store(&s)
}

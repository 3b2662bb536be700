package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"

	"cpa/internal/answers"
	"cpa/internal/core"
)

// Registry is the multi-tenant job table: one CPA job per dataset/tenant.
// With a persistent Config.Dir, Open recovers every job found on disk
// (checkpoint load + journal replay) before returning.
type Registry struct {
	cfg Config

	mu   sync.RWMutex
	jobs map[string]*Job
}

// Open creates a registry and recovers any jobs persisted under
// cfg.Dir/jobs. With an empty Dir the registry is fully in-memory.
func Open(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, jobs: make(map[string]*Job)}
	if cfg.Dir == "" {
		return r, nil
	}
	jobsDir := filepath.Join(cfg.Dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// A directory without a spec is an aborted Create (the journal is
		// only opened after job.json lands, so no durable data can exist);
		// skip it rather than poisoning recovery of every healthy tenant.
		if _, err := os.Stat(filepath.Join(jobsDir, e.Name(), specFile)); os.IsNotExist(err) {
			continue
		}
		j, err := openExistingJob(filepath.Join(jobsDir, e.Name()), cfg)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("serve: recovering job %q: %w", e.Name(), err)
		}
		r.jobs[j.ID()] = j
	}
	return r, nil
}

// Create registers a new job and starts its fitter. The spec's model config
// is validated by core and persisted in its effective (defaults-filled)
// form, so a recovered job always rebuilds the exact same model.
func (r *Registry) Create(spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	model, err := core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	spec.Model = model.Config()

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.jobs[spec.ID]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, spec.ID)
	}
	dir := ""
	var jr *journal
	if r.cfg.Dir != "" {
		dir = filepath.Join(r.cfg.Dir, "jobs", spec.ID)
		// Refuse to adopt a directory with prior durable state (spec,
		// journal or checkpoint): appending a new job's answers to a
		// retained journal would fold the old tenant's data into the new
		// consensus on the next recovery. Deleted jobs keep their state on
		// disk by contract — restart recovers them; remove the directory
		// to truly discard one. A bare directory (an aborted Create) holds
		// nothing durable and is adopted.
		if retained, err := hasJobState(dir); err != nil {
			return nil, fmt.Errorf("serve: probing job dir: %w", err)
		} else if retained {
			return nil, fmt.Errorf("%w: %q has retained on-disk state at %s (restart recovers it; remove the directory to discard)",
				ErrExists, spec.ID, dir)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating job dir: %w", err)
		}
		// Any failure past this point removes the directory again: a
		// half-created job must not 409 future Creates or trip recovery.
		raw, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := writeFileAtomic(filepath.Join(dir, specFile), raw, r.cfg.SyncJournal); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("serve: writing job spec: %w", err)
		}
		if jr, err = openJournal(filepath.Join(dir, journalFile), r.cfg.SyncJournal, 0, JournalBase{}, 0); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	j := newJob(spec, model, dir, r.cfg)
	j.journal = jr
	if jr != nil {
		jr.stats = j.ingestHist
	}
	j.start()
	r.jobs[spec.ID] = j
	return j, nil
}

// AdoptJob opens a job whose directory was materialised out of band — a
// cluster follower promoting its shipped journal (plus spec and optional
// checkpoint) into a live, fitting job. It runs the standard recovery path
// (checkpoint load + journal suffix replay, torn tail truncated), so the
// adopted job's state is bit-for-bit what replaying the shipped journal
// yields. Requires a persistent registry and an unregistered id.
func (r *Registry) AdoptJob(id string) (*Job, error) {
	if r.cfg.Dir == "" {
		return nil, fmt.Errorf("%w: adopting a job requires a persistent registry", ErrInvalid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.jobs[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	j, err := openExistingJob(filepath.Join(r.cfg.Dir, "jobs", id), r.cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: adopting job %q: %w", id, err)
	}
	r.jobs[id] = j
	return j, nil
}

// Get returns a job by id.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns every registered job, ordered by id.
func (r *Registry) Jobs() []*Job {
	r.mu.RLock()
	out := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, j)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID() < out[b].ID() })
	return out
}

// Delete closes a job (draining its queue and checkpointing) and removes it
// from the registry. Its on-disk state is retained — restart recovers it;
// Purge discards it.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if ok {
		delete(r.jobs, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.Close()
}

// Purge is Delete plus storage GC: it closes the job (if registered) and
// removes its directory — journal, checkpoints, spec, epoch record — so the
// id is immediately reusable and the tenant's disk is reclaimed. It also
// purges the retained state of an already-deleted job (the state that
// otherwise 409s a Create reusing the id). Irreversible.
func (r *Registry) Purge(id string) error {
	if err := validateJobID(id); err != nil {
		return err
	}
	r.mu.Lock()
	j, ok := r.jobs[id]
	if ok {
		delete(r.jobs, id)
	}
	r.mu.Unlock()
	var err error
	if ok {
		err = j.Close()
	}
	if r.cfg.Dir == "" {
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return err
	}
	dir := filepath.Join(r.cfg.Dir, "jobs", id)
	if !ok {
		retained, serr := hasJobState(dir)
		if serr != nil {
			return serr
		}
		if !retained {
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// Close shuts every job down cleanly (drain, checkpoint, close journal).
func (r *Registry) Close() error {
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.jobs = make(map[string]*Job)
	r.mu.Unlock()
	var first error
	for _, j := range jobs {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CrashAll simulates a hard kill (kill -9) of every job: fitters stop
// without draining their queues, no final checkpoint is written, and
// journals are dropped without a clean close (appends are already flushed
// per batch, exactly as they would be in a real crash). The registry is
// unusable afterwards; Open the same data directory to recover. Exported
// for the loadgen chaos harness and the recovery tests.
func (r *Registry) CrashAll() {
	for _, j := range r.Jobs() {
		j.crash()
	}
}

// hasJobState reports whether a job directory holds durable state (spec,
// journal or checkpoint). A missing directory, or a bare one left by an
// aborted Create, has none.
func hasJobState(dir string) (bool, error) {
	for _, name := range []string{specFile, journalFile, modelFile, baseFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true, nil
		} else if !os.IsNotExist(err) {
			return false, err
		}
	}
	return false, nil
}

// writeFileAtomic lands a file via tmp + rename so a crash mid-write never
// leaves a torn spec for recovery to trip over; sync makes the rename
// durable (RenameDurable).
func writeFileAtomic(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := RenameDurable(tmp, path, sync); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// openExistingJob recovers one job from its directory and starts its
// fitter.
func openExistingJob(dir string, cfg Config) (*Job, error) {
	j, err := recoverJob(dir, cfg)
	if err != nil {
		return nil, err
	}
	j.start()
	return j, nil
}

// recoverHook, when set, runs before recovery's re-anchor publication. It
// is a fault-injection seam for tests and must be set before Open.
var recoverHook func(j *Job)

// recoverJob rebuilds one job from its directory without starting the
// fitter: load the spec, seed the replay engine from the newest checkpoint
// (or a fresh model), replay the journal suffix with the original
// mini-batch boundaries, and requeue any answers that were journaled but
// never fitted. The replay and the re-anchor publication run the fit and
// publication kernels outside the fitter's guard, so a panic in them (on
// this goroutine or, via mat.ParallelFor, on one of its shards) becomes an
// error naming the job, and the journal it opened is closed: the daemon
// reports the job instead of dying at startup.
func recoverJob(dir string, cfg Config) (j *Job, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("serve: job %s: recovery panic: %v\n%s", filepath.Base(dir), r, debug.Stack())
			if j != nil && j.journal != nil {
				j.journal.Close()
			}
			j, err = nil, fmt.Errorf("serve: job %q: recovery panic: %v", filepath.Base(dir), r)
		}
	}()
	raw, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return nil, fmt.Errorf("reading spec: %w", err)
	}
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("decoding spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}

	// Seed from the newest checkpoint: model.gob when present, else the
	// truncation anchor base.gob (a follower of a truncated source stages
	// only the latter), else a fresh model. The engine skips whatever of the
	// journal the checkpoint covers and rejects a truncated journal with no
	// checkpoint at or past its base — the dropped prefix cannot be replayed.
	var rp *replayer
	for _, name := range []string{modelFile, baseFile} {
		f, err := os.Open(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("opening checkpoint: %w", err)
		}
		rp, err = newReplayer(spec, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading checkpoint %s: %w", name, err)
		}
		break
	}
	if rp == nil {
		if rp, err = newReplayer(spec, nil); err != nil {
			return nil, err
		}
	}

	j = newJob(spec, rp.model, dir, cfg)
	// A deposed primary that crashes and recovers must stay deposed: the
	// cluster has moved ownership on, and un-fencing on restart would let it
	// ack writes behind the new owner's back.
	if j.epoch, err = loadEpochState(dir); err != nil {
		return nil, err
	}

	// Replay the journal through the engine. Publish modes do not matter
	// here: recovery re-anchors with one full publication below.
	var base JournalBase
	var hdrLen int64
	var ans answers.Answer // reused for every answer record: no per-record allocation
	journalPath := filepath.Join(dir, journalFile)
	// A kill between a truncation's temp-file write and its rename can leave
	// the temp file behind; it was never the journal, so drop it.
	os.Remove(journalPath + ".tmp")
	durableOff, durableRecs, err := replayJournal(journalPath, func(line journalLine, size int64) error {
		e := line.entry(&ans)
		if _, err := rp.apply(e); err != nil {
			return err
		}
		if e.Base != nil {
			base, hdrLen = *e.Base, size
		}
		return nil
	})
	if err == nil {
		err = rp.finish()
	}
	if err != nil {
		return nil, err
	}
	j.replayed = rp.replayed()
	ingested, fitted, rounds := rp.counters()
	j.ingested.Store(ingested)
	j.fitted.Store(fitted)
	j.rounds.Store(rounds)
	// Truncate any torn tail (a crash mid-append, or a shipped journal whose
	// stream died mid-record) back to the durable offset before reopening
	// for append: a new record must never concatenate onto a half-written
	// one, which the next recovery would reject as mid-file corruption.
	if st, serr := os.Stat(journalPath); serr == nil && st.Size() > durableOff {
		if terr := os.Truncate(journalPath, durableOff); terr != nil {
			return nil, fmt.Errorf("truncating torn journal tail: %w", terr)
		}
	}
	recs := durableRecs
	if hdrLen != 0 {
		recs-- // the base header line is not a journal record
	}
	if j.journal, err = openJournal(journalPath, cfg.SyncJournal, recs, base, hdrLen); err != nil {
		return nil, err
	}
	j.journal.stats = j.ingestHist
	if rp.model.Fitted() {
		// Re-anchor: the recovered publisher starts cold, so the first
		// publication is a full one. The restart marker records that for
		// replay — without it, an offline replay would carry incremental
		// snapshot state across the crash that the server no longer has.
		if err := j.journal.appendRestart(); err != nil {
			j.journal.Close()
			return nil, err
		}
		if recoverHook != nil {
			recoverHook(j)
		}
		if err := j.publish(true); err != nil {
			j.journal.Close()
			return nil, err
		}
	}
	j.enqueueRecovered(rp.pending)
	return j, nil
}

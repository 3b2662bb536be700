// Package serve is the consensus-serving subsystem behind cmd/cpaserve: a
// long-running, multi-tenant service that ingests crowd answer streams and
// serves always-fresh consensus queries concurrently.
//
// Architecture (DESIGN.md §6):
//
//   - Registry: one CPA job per dataset/tenant, each owning a core.Model.
//   - Ingestion: answers POSTed to a job are validated, appended to an
//     append-only JSONL journal, and pushed onto a bounded in-memory queue.
//     A per-job background fitter drains the queue into mini-batches and
//     advances the model with the single-pass SVI PartialFit (paper
//     Algorithm 2) — the model is only ever touched by its fitter goroutine.
//   - Read path: after every fit round the fitter publishes an immutable
//     consensus Snapshot behind an atomic pointer. Reads never contend with
//     fitting: GET /consensus is a pointer load plus JSON encoding.
//   - Crash recovery: the journal records every ingested answer and a fit
//     marker per mini-batch; the model posterior is checkpointed to gob
//     (core.Model.Save) every few rounds. On restart the checkpoint is
//     loaded and the journal suffix replayed with the original batch
//     boundaries, reproducing the pre-crash posterior bit-for-bit up to the
//     last flushed marker.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"cpa/internal/core"
)

// Errors reported by the registry and jobs. HTTP handlers map them to
// status codes (ErrNotFound → 404, ErrExists → 409, ErrQueueFull → 429,
// ErrClosed → 503, ErrTooLarge → 413, validation → 400).
var (
	ErrNotFound  = errors.New("serve: job not found")
	ErrExists    = errors.New("serve: job already exists")
	ErrQueueFull = errors.New("serve: ingestion queue full")
	ErrClosed    = errors.New("serve: job closed")
	ErrInvalid   = errors.New("serve: invalid request")
	ErrTooLarge  = errors.New("serve: request body too large")
	// ErrTruncated means a requested journal offset predates the truncated
	// prefix (HTTP 410): the reader must re-handshake from the base — fetch
	// the base checkpoint, then tail from the base offset.
	ErrTruncated = errors.New("serve: offset predates truncated journal prefix")
)

// Config tunes the serving subsystem. The zero value is usable: an
// ephemeral (journal-less, non-recoverable) in-memory service with default
// queue and checkpoint settings.
type Config struct {
	// Dir is the data directory (one subdirectory per job under Dir/jobs).
	// Empty disables persistence: no journal, no checkpoints, no recovery.
	Dir string

	// QueueLimit bounds the per-job in-memory answer queue; ingestion
	// beyond it is rejected with ErrQueueFull (backpressure). Default 65536.
	QueueLimit int

	// SaveEvery checkpoints the model posterior to gob every N fit rounds
	// (plus once on clean shutdown). Default 16.
	SaveEvery int

	// BatchWait is how long the fitter lets a mini-batch fill to the
	// model's BatchSize before fitting a partial batch, counted from when
	// the oldest queued answer was admitted or, for answers left over
	// after a full-size batch, from that take. Default 100ms.
	BatchWait time.Duration

	// SyncJournal fsyncs the journal after every ingested batch. Appends
	// are always flushed to the OS (surviving process death); Sync
	// additionally survives power loss at a latency cost. Default false.
	SyncJournal bool

	// TruncateJournal enables checkpoint-anchored journal truncation
	// (DESIGN.md §12): after a checkpoint written at a caught-up (full)
	// publication, the journal prefix the checkpoint covers is dropped
	// behind a base header and the anchoring checkpoint is retained as
	// base.gob, bounding the journal at roughly the bytes ingested between
	// checkpoints. Recovery, replay, and replication coordinates are
	// unchanged (global offsets stay continuous); followers of a truncated
	// source re-handshake from the base. Default false: append-only forever.
	TruncateJournal bool

	// TruncateMin is the minimum droppable prefix, in bytes, before a
	// truncation rewrite is worth its copy cost. Default 64KiB (with
	// TruncateJournal set).
	TruncateMin int64

	// AutoTune enables the per-job USL capacity tuner (DESIGN.md §13): the
	// fitter samples its own round throughput, fits X(n) = γn/(1+α(n−1)+βn(n−1))
	// per knob, and steers the job's Parallelism and mini-batch size toward
	// the measured knee — one ladder rung per adjustment, between rounds
	// only, journaled as a replay-inert annotation. Default false.
	AutoTune bool

	// AutoTuneWindow is how many fit rounds one tuner measurement window
	// spans (throughput is averaged across the window before it becomes an
	// observation). Default 8.
	AutoTuneWindow int

	// AutoTuneMaxParallelism caps the tuner's Parallelism ladder. Default
	// runtime.GOMAXPROCS(0) — steering past the core count only ever adds
	// coherence cost.
	AutoTuneMaxParallelism int
}

func (c Config) withDefaults() Config {
	if c.QueueLimit == 0 {
		c.QueueLimit = 65536
	}
	if c.SaveEvery == 0 {
		c.SaveEvery = 16
	}
	if c.BatchWait == 0 {
		c.BatchWait = 100 * time.Millisecond
	}
	if c.TruncateJournal && c.TruncateMin == 0 {
		c.TruncateMin = 64 << 10
	}
	if c.AutoTuneWindow == 0 {
		c.AutoTuneWindow = 8
	}
	if c.AutoTuneMaxParallelism == 0 {
		c.AutoTuneMaxParallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// JobSpec declares one consensus job: its identity, problem dimensions, and
// model configuration. It is persisted as job.json in the job's directory.
type JobSpec struct {
	ID      string      `json:"id"`
	Items   int         `json:"items"`
	Workers int         `json:"workers"`
	Labels  int         `json:"labels"`
	Model   core.Config `json:"model"`
}

func (s JobSpec) validate() error {
	if err := validateJobID(s.ID); err != nil {
		return err
	}
	if s.Items <= 0 || s.Workers <= 0 || s.Labels <= 0 {
		return fmt.Errorf("%w: job dimensions %d/%d/%d", ErrInvalid, s.Items, s.Workers, s.Labels)
	}
	return nil
}

// validateJobID checks a job id in isolation. The character set doubles as
// path-safety: every id maps to a directory name with no separators or dot
// segments, so id-addressed disk operations (recovery, purge) cannot escape
// the jobs directory.
func validateJobID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("%w: job id must be 1-128 characters", ErrInvalid)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("%w: job id %q may only contain [A-Za-z0-9._-]", ErrInvalid, id)
		}
	}
	if id == "." || id == ".." {
		return fmt.Errorf("%w: job id %q is reserved", ErrInvalid, id)
	}
	return nil
}

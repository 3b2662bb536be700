package serve

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"cpa/internal/core"
)

// Snapshot is one immutable, JSON-ready consensus publication. The fitter
// builds a fresh Snapshot after each round and swaps it behind the job's
// atomic pointer; readers share the value without copying, so nothing in a
// published Snapshot may ever be mutated. Its consensus is the published
// core view's entries themselves, and across incremental rounds the
// entries of untouched items are shared with the previous publication
// (core.Publisher) — the same immutability contract, extended backwards in
// time.
type Snapshot struct {
	JobID   string `json:"job_id"`
	Round   int    `json:"round"`   // fit rounds behind this snapshot
	Answers int    `json:"answers"` // answers the model had ingested
	Items   int    `json:"items"`
	Workers int    `json:"workers"`
	Labels  int    `json:"labels"`

	EffectiveCommunities int `json:"effective_communities"`
	EffectiveClusters    int `json:"effective_clusters"`

	CreatedAt time.Time `json:"created_at"`

	// Consensus holds one entry per item (index == item id): the view's
	// Items, shared, not copied.
	Consensus []ItemSnapshot `json:"consensus"`

	// enc caches the encoded JSON of this snapshot so concurrent
	// GET /consensus readers marshal O(items) once per publication, not
	// once per request. Held by pointer so Snapshot values stay copyable;
	// copies share the cache, which is safe because published snapshots
	// are immutable. Nil on snapshots not built by this package (e.g.
	// client-side decodes): those marshal per call.
	enc *snapshotEnc
}

// snapshotEnc is the lazily filled encoding cache. A racing double-encode
// is benign (identical bytes, last store wins).
type snapshotEnc struct {
	body atomic.Pointer[[]byte]
}

// encodedBody returns the snapshot's JSON encoding (newline-terminated,
// matching json.Encoder output), computing and caching it on first use.
func (s *Snapshot) encodedBody() ([]byte, error) {
	if s.enc != nil {
		if b := s.enc.body.Load(); b != nil {
			return *b, nil
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	raw = append(raw, '\n')
	if s.enc != nil {
		s.enc.body.Store(&raw)
	}
	return raw, nil
}

// ItemSnapshot is one item's published consensus: its instantiated label
// set (paper §3.4) and every voted label with the model's calibrated
// inclusion posterior, so clients can apply their own thresholds.
type ItemSnapshot = core.ItemConsensus

// CandidateSnapshot is one voted label and its inclusion confidence.
type CandidateSnapshot = core.Candidate

// emptySnapshot is published at job start so readers always see a snapshot
// (round 0, no consensus) rather than a 404.
func emptySnapshot(spec JobSpec, now time.Time) *Snapshot {
	return &Snapshot{
		JobID:     spec.ID,
		Items:     spec.Items,
		Workers:   spec.Workers,
		Labels:    spec.Labels,
		CreatedAt: now,
		Consensus: []ItemSnapshot{},
		enc:       &snapshotEnc{},
	}
}

// nextSnapshot packages a consensus view for publication. The snapshot's
// consensus is the view's Items array: the publisher already built it
// fresh for this round, rebuilding the refreshed items' entries and
// sharing every other entry with the previous view.
func nextSnapshot(jobID string, view *core.ConsensusView, now time.Time) *Snapshot {
	return &Snapshot{
		JobID:                jobID,
		Round:                view.Stats.BatchRounds,
		Answers:              view.Stats.Answers,
		Items:                view.Stats.Items,
		Workers:              view.Stats.Workers,
		Labels:               view.Stats.Labels,
		EffectiveCommunities: view.Stats.EffectiveCommunities,
		EffectiveClusters:    view.Stats.EffectiveClusters,
		CreatedAt:            now,
		Consensus:            view.Items,
		enc:                  &snapshotEnc{},
	}
}

package core

import (
	"fmt"

	"cpa/internal/labelset"
)

// ModelStats is a cheap read-only summary of a model's training state, safe
// to copy and publish outside the fitting goroutine. All fields are plain
// values; none alias model storage.
type ModelStats struct {
	Items, Workers, Labels int
	// Answers is the number of answers ingested so far. Monotone: it counts
	// the whole stream even when Config.AnswerWindow trims storage.
	Answers int
	// Retained is the number of answers currently held in storage — equal to
	// Answers unless an AnswerWindow compaction has dropped old arrivals.
	Retained int
	// BatchRounds counts PartialFit calls (0 for batch-only models).
	BatchRounds int
	// LastBatchDelta is the max responsibility change of the latest
	// PartialFit round.
	LastBatchDelta float64
	// EffectiveCommunities/EffectiveClusters count mixture components with
	// expected proportion above 1% — the paper's R4 adaptivity diagnostics.
	EffectiveCommunities int
	EffectiveClusters    int
	Fitted               bool
}

// Stats summarises the model's current training state.
func (m *Model) Stats() ModelStats {
	return ModelStats{
		Items:                m.numItems,
		Workers:              m.numWorkers,
		Labels:               m.numLabels,
		Answers:              m.totalAns,
		Retained:             m.numAns,
		BatchRounds:          m.batchIndex,
		LastBatchDelta:       m.lastBatchDelta,
		EffectiveCommunities: m.EffectiveCommunities(0.01),
		EffectiveClusters:    m.EffectiveClusters(0.01),
		Fitted:               m.fitted,
	}
}

// BatchRounds returns how many SVI mini-batches the model has consumed.
func (m *Model) BatchRounds() int { return m.batchIndex }

// ItemConsensus is the read-only consensus for one item: the instantiated
// label set plus the calibrated inclusion posterior of every voted
// candidate. It is also the served entry: serve publishes a view's Items
// as its snapshot's consensus, so the JSON tags are the wire format.
type ItemConsensus struct {
	Item int `json:"item"`
	// Labels is the predicted consensus label set, sorted ascending.
	Labels []int `json:"labels"`
	// Candidates lists every voted label, sorted, with the model's imputed
	// truth probability ŷ for it; nil when the item has no votes.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Candidate is one voted label and its inclusion confidence.
type Candidate struct {
	Label      int     `json:"label"`
	Confidence float64 `json:"confidence"`
}

// ConsensusView is a read-only export of the model's full consensus:
// prediction, per-candidate confidences, and training stats. Readers must
// not write into it. It shares no storage with the model, so a fitting loop
// can build one per round and hand it to concurrent readers (cpaserve
// publishes its Items behind an atomic pointer) while training continues
// on the live model.
type ConsensusView struct {
	Items []ItemConsensus
	Stats ModelStats
}

// ConsensusView predicts every item and packages the result with fresh
// backing storage. It runs the §3.4 instantiation once (on the Algorithm 3
// shards) and must be called from the goroutine that owns the model; the
// returned view itself is safe to share.
func (m *Model) ConsensusView() (*ConsensusView, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%w: ConsensusView before Fit/FitStream", ErrState)
	}
	defer m.releaseScratch()
	pred := m.predictAll()
	view := &ConsensusView{
		Items: make([]ItemConsensus, m.numItems),
		Stats: m.Stats(),
	}
	// Each entry is built from its own item's state into fresh storage, so
	// the Algorithm 3 shards build them side by side.
	m.parallelFor(m.numItems, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			view.Items[i] = m.itemConsensus(i, pred[i])
		}
	})
	return view, nil
}

// itemConsensus packages item i's entry, in fresh storage, from its
// predicted set and its current voted labels and ŷ; the item must have
// been expanded in this call.
func (m *Model) itemConsensus(i int, pred labelset.Set) ItemConsensus {
	it := ItemConsensus{Item: i, Labels: pred.Slice()}
	if vals := m.yhatVals[i]; len(vals) > 0 {
		it.Candidates = make([]Candidate, len(vals))
		for k, c := range m.votedList(i) {
			it.Candidates[k] = Candidate{Label: c, Confidence: vals[k]}
		}
	}
	return it
}

// Config returns the model's effective configuration (defaults filled).
func (m *Model) Config() Config { return m.cfg }

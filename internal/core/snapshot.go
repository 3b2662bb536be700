package core

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
// label set plus the calibrated inclusion posterior of every voted candidate.
type ItemConsensus struct {
	// Labels is the predicted consensus label set, sorted ascending.
	Labels []int
	// Candidates lists the voted labels (sorted), Confidence the model's
	// imputed truth probability ŷ for each (aligned with Candidates).
	// Candidates is the model's own voted list, shared, not copied: the
	// model only ever replaces an item's list, never writes into one, so a
	// view's lists stay as published.
	Candidates []int
	Confidence []float64
}

// ConsensusView is a read-only export of the model's full consensus:
// prediction, per-candidate confidences, and training stats. Readers must
// not write into it. It shares only the voted lists with the model, which
// training never mutates, so a fitting loop can build one per round and
// hand it to concurrent readers (cpaserve publishes it behind an atomic
// pointer) while training continues on the live model.
type ConsensusView struct {
	Items []ItemConsensus
	Stats ModelStats
}

// ConsensusView predicts every item and packages the result with fresh
// backing storage. It runs the §3.4 instantiation once (on the Algorithm 3
// shards) and must be called from the goroutine that owns the model; the
// returned view itself is safe to share.
func (m *Model) ConsensusView() (*ConsensusView, error) {
	pred, err := m.Predict()
	if err != nil {
		return nil, err
	}
	view := &ConsensusView{
		Items: make([]ItemConsensus, m.numItems),
		Stats: m.Stats(),
	}
	for i := range view.Items {
		view.Items[i] = ItemConsensus{
			Labels:     pred[i].Slice(),
			Candidates: m.sharedVoted(i),
			Confidence: append([]float64(nil), m.yhatVals[i]...),
		}
	}
	return view, nil
}

// sharedVoted returns item i's voted list for a view: nil when empty, as a
// copy would be, and with its capacity clamped so an append by a reader
// copies instead of writing past it.
func (m *Model) sharedVoted(i int) []int {
	if v := m.votedList[i]; len(v) > 0 {
		return v[:len(v):len(v)]
	}
	return nil
}

// Config returns the model's effective configuration (defaults filled).
func (m *Model) Config() Config { return m.cfg }

package loadgen

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/serve"
)

// replayJournal rebuilds the consensus a job's journal encodes: a model
// advanced by PartialFit with the recorded mini-batch boundaries — exactly
// the FitStream computation the daemon performed, in the arrival order the
// journal persisted — and a mirrored core.Publisher driven by the recorded
// publish modes, so incremental publications (which carry untouched items'
// entries forward across rounds) reproduce bit-for-bit too.
//
// A truncated journal (one opening with a base header) is checkpoint-
// anchored: the model is seeded from the base checkpoint next to the
// journal — the daemon's own model at a full-published round — and the
// retained suffix replays on top, which by construction equals the
// from-zero replay of the untruncated journal. The header records exactly
// the prefix truncation dropped; the checkpoint may cover more (DESIGN.md
// §12), so the suffix's first Δanswers answer records and Δfits fit markers
// are skipped, where Δ is the checkpoint's coverage minus the header's. The
// skips must be consumed exactly, and the skipped markers must consume
// exactly the checkpoint's answers. This referee is independent of the
// serve replay engine on purpose. The returned base is the zero value for
// an untruncated journal.
//
// Returns the post-replay consensus view (nil when no fit marker is
// covered), the suffix's journaled answer sequence (skipped answers
// included), the answers journaled but not covered by any fit marker, and
// the base.
func replayJournal(path string, spec serve.JobSpec) (*core.ConsensusView, []answers.Answer, []answers.Answer, serve.JournalBase, error) {
	var base serve.JournalBase
	fail := func(err error) (*core.ConsensusView, []answers.Answer, []answers.Answer, serve.JournalBase, error) {
		return nil, nil, nil, base, err
	}
	var entries []serve.JournalEntry
	if err := serve.ReadJournal(path, func(e serve.JournalEntry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		return fail(err)
	}
	var model *core.Model
	var acked []answers.Answer
	for _, e := range entries {
		if e.Answer != nil {
			acked = append(acked, *e.Answer)
		}
	}
	seeded := false
	if len(entries) > 0 && entries[0].Base != nil {
		base = *entries[0].Base
		entries = entries[1:]
		f, err := os.Open(filepath.Join(filepath.Dir(path), serve.BaseCheckpointFileName))
		if err != nil {
			return fail(fmt.Errorf("journal has a base header but its checkpoint is unreadable: %w", err))
		}
		model, err = core.Load(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		if entries, err = skipCovered(entries, model, base); err != nil {
			return fail(err)
		}
		seeded = true
	} else {
		var err error
		if model, err = core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels); err != nil {
			return fail(err)
		}
	}

	// Every full publication (and every restart re-anchor, and the very
	// first round, which a cold publisher always publishes full) rebuilds
	// the whole view from the model state of its round, superseding all
	// earlier snapshot history. The mirrored publisher therefore only needs
	// to publish from the last such anchor onward; fit rounds before it
	// replay the model alone. A checkpoint seed is itself an anchor
	// (lastAnchor -1): truncation only ever fires at full-published rounds,
	// so the daemon's live chain was re-anchored full at the base too.
	lastAnchor := -1
	if !seeded {
		lastAnchor = -2
		for k, e := range entries {
			if e.FitN > 0 && lastAnchor == -2 {
				lastAnchor = k // first round: published full by the cold publisher
			}
		}
	}
	for k, e := range entries {
		if (e.FitN > 0 && e.FitFull) || e.Restart {
			lastAnchor = k
		}
	}

	pub := core.NewPublisher(model)
	var view *core.ConsensusView
	var err error
	if seeded && lastAnchor == -1 && model.Fitted() {
		if view, _, err = pub.Publish(true); err != nil {
			return fail(err)
		}
	}
	var pending []answers.Answer
	for k, e := range entries {
		switch {
		case e.Answer != nil:
			pending = append(pending, *e.Answer)
		case e.Restart:
			if k == lastAnchor && model.Fitted() {
				if view, _, err = pub.Publish(true); err != nil {
					return fail(err)
				}
			}
		case e.Base != nil:
			return fail(fmt.Errorf("journal base header past the first record"))
		default: // fit marker
			if e.FitN > len(pending) {
				return fail(fmt.Errorf("fit marker n=%d with %d pending answers", e.FitN, len(pending)))
			}
			if err := model.PartialFit(pending[:e.FitN]); err != nil {
				return fail(err)
			}
			pending = pending[e.FitN:]
			if k == lastAnchor {
				view, _, err = pub.Publish(true)
			} else if k > lastAnchor {
				view, _, err = pub.Publish(false)
			} else {
				continue
			}
			if err != nil {
				return fail(err)
			}
		}
	}
	if !model.Fitted() {
		return nil, acked, pending, base, nil
	}
	if view == nil {
		// Seeded, fitted, but no anchor or fit marker replayed (an empty
		// retained suffix): the checkpoint state is the served state.
		if view, _, err = pub.Publish(true); err != nil {
			return fail(err)
		}
	}
	return view, acked, pending, base, nil
}

// skipCovered drops the records of a truncated journal's suffix that the
// base checkpoint already covers beyond the header: the first Δanswers
// answer records and Δfits fit markers, plus any restart re-anchor among
// them (the checkpoint, a full-published round, supersedes it). A
// checkpoint behind the header, a suffix too short to consume the skips,
// or skipped markers that consume other than the checkpoint's answers is
// an error.
func skipCovered(entries []serve.JournalEntry, model *core.Model, base serve.JournalBase) ([]serve.JournalEntry, error) {
	ckAns, ckFits := int64(model.TotalIngested()), int64(model.BatchRounds())
	skipAns, skipFits := ckAns-base.Ans, ckFits-base.Fits
	if skipAns < 0 || skipFits < 0 {
		return nil, fmt.Errorf("base checkpoint covers %d answers / %d fits, behind the journal base's %d / %d",
			ckAns, ckFits, base.Ans, base.Fits)
	}
	covered := base.Covered
	kept := make([]serve.JournalEntry, 0, len(entries))
	for _, e := range entries {
		switch {
		case skipAns > 0 && e.Answer != nil:
			skipAns--
		case skipFits > 0 && e.FitN > 0:
			skipFits--
			covered += int64(e.FitN)
		case (skipAns > 0 || skipFits > 0) && e.Restart:
		default:
			kept = append(kept, e)
		}
	}
	if skipAns > 0 || skipFits > 0 {
		return nil, fmt.Errorf("base checkpoint covers %d answers / %d fits, journal base %d / %d plus the suffix holds %d / %d fewer",
			ckAns, ckFits, base.Ans, base.Fits, skipAns, skipFits)
	}
	if covered != ckAns {
		return nil, fmt.Errorf("base checkpoint holds %d answers, journal base plus skipped fit markers cover %d", ckAns, covered)
	}
	return kept, nil
}

// CheckReplay verifies the served-equals-replay invariant: the snapshot a
// server published for a job must be bit-for-bit reproducible by an offline
// replay of that job's journal (same arrival order, same recorded
// mini-batch boundaries, same model config). A nil error means the served
// consensus is exactly the deterministic function of the durable state —
// the property that makes crash recovery exact and that the PR 2 class of
// arrival-order persistence bugs violates.
func CheckReplay(journalPath string, spec serve.JobSpec, snap *serve.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("no served snapshot to check against")
	}
	view, _, _, _, err := replayJournal(journalPath, spec)
	if err != nil {
		return fmt.Errorf("replaying journal: %w", err)
	}
	if view == nil {
		if snap.Round != 0 {
			return fmt.Errorf("served round %d but journal has no fit markers", snap.Round)
		}
		return nil
	}
	return diffSnapshot(snap, view)
}

// diffSnapshot compares a served snapshot with a replayed consensus view,
// element by element and bit for bit (float confidences included — Go's
// JSON encoding round-trips float64 exactly, and the replay is the same
// deterministic computation the server ran).
func diffSnapshot(snap *serve.Snapshot, view *core.ConsensusView) error {
	if snap.Round != view.Stats.BatchRounds {
		return fmt.Errorf("served round %d, replay %d", snap.Round, view.Stats.BatchRounds)
	}
	if snap.Answers != view.Stats.Answers {
		return fmt.Errorf("served snapshot covers %d answers, replay %d", snap.Answers, view.Stats.Answers)
	}
	if len(snap.Consensus) != len(view.Items) {
		return fmt.Errorf("served %d items, replay %d", len(snap.Consensus), len(view.Items))
	}
	for i, item := range view.Items {
		got := snap.Consensus[i]
		if got.Item != i {
			return fmt.Errorf("item %d: served snapshot indexes it as %d", i, got.Item)
		}
		if !slices.Equal(got.Labels, item.Labels) {
			return fmt.Errorf("item %d: served labels %v, replay %v", i, got.Labels, item.Labels)
		}
		if len(got.Candidates) != len(item.Candidates) {
			return fmt.Errorf("item %d: served %d candidates, replay %d", i, len(got.Candidates), len(item.Candidates))
		}
		for k, c := range item.Candidates {
			if got.Candidates[k].Label != c {
				return fmt.Errorf("item %d candidate %d: served label %d, replay %d", i, k, got.Candidates[k].Label, c)
			}
			if got.Candidates[k].Confidence != item.Confidence[k] {
				return fmt.Errorf("item %d candidate %d (label %d): served confidence %v, replay %v",
					i, k, c, got.Candidates[k].Confidence, item.Confidence[k])
			}
		}
	}
	return nil
}

// checkAckedDurable verifies the backpressure invariant: the journal's
// answer sequence equals the client-side acked sequence exactly — same
// answers, same order, nothing lost to a 429/retry cycle, nothing
// duplicated by one. skipped is the acked prefix a journal truncation
// compacted behind the base checkpoint (0 for an untruncated journal): the
// journal then holds exactly the acked suffix past it.
func checkAckedDurable(journaled, acked []answers.Answer, skipped int64) error {
	if skipped < 0 || skipped > int64(len(acked)) {
		return fmt.Errorf("journal base covers %d answers but the client acked only %d", skipped, len(acked))
	}
	acked = acked[skipped:]
	if len(journaled) != len(acked) {
		return fmt.Errorf("journal holds %d answers, client acked %d past the base", len(journaled), len(acked))
	}
	for i := range acked {
		j, a := journaled[i], acked[i]
		if j.Item != a.Item || j.Worker != a.Worker || !j.Labels.Equal(a.Labels) {
			return fmt.Errorf("position %d: journal has (item %d, worker %d, %v), client acked (item %d, worker %d, %v)",
				i, j.Item, j.Worker, j.Labels, a.Item, a.Worker, a.Labels)
		}
	}
	return nil
}

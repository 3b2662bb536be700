package serve

import (
	"fmt"
	"io"

	"cpa/internal/answers"
	"cpa/internal/core"
)

// replayer is the one interpreter of the journal grammar (DESIGN.md §6,
// §12): the only code in this package that builds model state from journal
// records. Registry recovery and the follower Applier both run on it.
//
// A checkpoint covers the first TotalIngested() answer records and
// BatchRounds() fit markers of the job's global journal. A truncated
// journal's base header says how many of each its dropped prefix held; the
// rest of the coverage is skipped from the retained suffix, so any
// checkpoint at or past the header replays exactly.
//
// The replayer never publishes: each applied record returns the step the
// caller's publisher has to mirror.
type replayer struct {
	spec    JobSpec
	model   *core.Model
	pending []answers.Answer // journaled, not yet consumed by a fit marker

	// seedAns/seedFits are the checkpoint's coverage, skipAns/skipFits the
	// part of it still ahead in the journal. covered sums the answers the
	// covered fit markers consumed (the dropped prefix's via the header);
	// once both skips are spent it must equal seedAns.
	seedAns, seedFits int64
	skipAns, skipFits int64
	covered           int64
	records           int64 // records applied so far, inert ones included
}

// replayStep is what one applied record asks of the caller's publisher.
type replayStep uint8

const (
	stepNone    replayStep = iota // nothing to publish
	stepFitInc                    // a fit round that published incrementally
	stepFitFull                   // a fit round that published in full
	stepRestart                   // a recovery re-anchored its publisher in full
)

// newReplayer seeds a replayer from a model checkpoint, or with a fresh
// model when checkpoint is nil. spec must already be validated.
func newReplayer(spec JobSpec, checkpoint io.Reader) (*replayer, error) {
	var model *core.Model
	var err error
	if checkpoint == nil {
		if model, err = core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	} else {
		if model, err = core.Load(checkpoint); err != nil {
			return nil, fmt.Errorf("%w: loading checkpoint: %v", ErrInvalid, err)
		}
		if items, workers, labels := model.Dims(); items != spec.Items || workers != spec.Workers || labels != spec.Labels {
			return nil, fmt.Errorf("%w: checkpoint dimensions (%d items, %d workers, %d labels) do not match spec (%d, %d, %d)",
				ErrInvalid, items, workers, labels, spec.Items, spec.Workers, spec.Labels)
		}
	}
	ans, fits := int64(model.TotalIngested()), int64(model.BatchRounds())
	return &replayer{spec: spec, model: model, seedAns: ans, seedFits: fits, skipAns: ans, skipFits: fits}, nil
}

// apply interprets one journal record in order.
func (r *replayer) apply(e JournalEntry) (replayStep, error) {
	r.records++
	switch {
	case e.Answer != nil:
		if r.skipAns > 0 {
			r.skipAns--
			return stepNone, r.checkCovered()
		}
		if err := r.spec.validateAnswer(*e.Answer); err != nil {
			return stepNone, err
		}
		r.pending = append(r.pending, *e.Answer)
	case e.FitN > 0:
		if r.skipFits > 0 {
			r.skipFits--
			r.covered += int64(e.FitN)
			return stepNone, r.checkCovered()
		}
		if r.skipAns > 0 {
			return stepNone, fmt.Errorf("%w: fit marker past the checkpoint's rounds with %d of its answers still ahead", ErrInvalid, r.skipAns)
		}
		if e.FitN > len(r.pending) {
			return stepNone, fmt.Errorf("%w: fit marker n=%d with %d pending answers", ErrInvalid, e.FitN, len(r.pending))
		}
		if err := r.model.PartialFit(r.pending[:e.FitN]); err != nil {
			return stepNone, err
		}
		r.pending = r.pending[e.FitN:]
		if e.FitFull {
			return stepFitFull, nil
		}
		return stepFitInc, nil
	case e.Restart:
		// A re-anchor inside the checkpoint's coverage is superseded by the
		// checkpoint itself, which every caller anchors in full.
		if r.skipAns > 0 || r.skipFits > 0 {
			return stepNone, nil
		}
		return stepRestart, nil
	case e.Base != nil:
		if r.records != 1 {
			return stepNone, fmt.Errorf("%w: base record past the journal header", ErrInvalid)
		}
		r.skipAns -= e.Base.Ans
		r.skipFits -= e.Base.Fits
		r.covered += e.Base.Covered
		if r.skipAns < 0 || r.skipFits < 0 {
			return stepNone, fmt.Errorf("%w: checkpoint (%d answers, %d markers) behind journal base (%d, %d): truncated prefix is unreplayable",
				ErrInvalid, r.seedAns, r.seedFits, e.Base.Ans, e.Base.Fits)
		}
		return stepNone, r.checkCovered()
	}
	return stepNone, nil
}

// checkCovered verifies, once the checkpoint's coverage is spent, that the
// covered fit markers consumed exactly the answers the checkpoint holds.
func (r *replayer) checkCovered() error {
	if r.skipAns == 0 && r.skipFits == 0 && r.covered != r.seedAns {
		return fmt.Errorf("%w: fit markers up to the checkpoint consumed %d answers, checkpoint holds %d", ErrInvalid, r.covered, r.seedAns)
	}
	return nil
}

// finish checks, at the end of a journal, that it reached past the
// checkpoint's coverage: a shorter journal cannot be the one the checkpoint
// was taken from.
func (r *replayer) finish() error {
	if r.skipAns > 0 || r.skipFits > 0 {
		return fmt.Errorf("%w: journal shorter than checkpoint (missing %d answers, %d markers)", ErrInvalid, r.skipAns, r.skipFits)
	}
	return nil
}

// counters reports progress in global coordinates: answers ingested
// (covered or pending), answers consumed by fit rounds, and fit rounds.
func (r *replayer) counters() (ingested, fitted, rounds int64) {
	fitted = int64(r.model.TotalIngested())
	return fitted + int64(len(r.pending)), fitted, int64(r.model.BatchRounds())
}

// replayed returns the fit rounds applied past the seed checkpoint.
func (r *replayer) replayed() int { return r.model.BatchRounds() - int(r.seedFits) }

package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"cpa/internal/core"
)

// Applier is the follower half of journal-shipping replication: it applies
// a primary's journal record by record through the same replay engine
// recovery uses (replay.go) and publishes every fit round with its recorded
// mode, and every restart re-anchor in full — exactly the computation the
// primary's fitter performed. A follower that has applied the same journal
// prefix therefore holds bit-identical model state and a bit-identical
// snapshot chain (modulo CreatedAt timestamps), so consensus reads can be
// served from any caught-up replica.
//
// Apply and Counters are single-goroutine (the tail loop); Snapshot is safe
// for concurrent readers.
type Applier struct {
	spec JobSpec
	rp   *replayer
	pub  *core.Publisher
	snap atomic.Pointer[Snapshot]
}

// NewApplier builds a cold applier for a job spec (as served by
// GET /v1/jobs/{id}/spec — the effective, defaults-filled form, so the
// follower's model is configured exactly like the primary's).
func NewApplier(spec JobSpec) (*Applier, error) { return NewApplierFrom(spec, nil) }

// NewApplierFrom builds an applier seeded from a model checkpoint, or a cold
// one when checkpoint is nil. Seeding is the follower half of the
// truncation handshake: when a primary answers a tail request with 410 Gone
// (the requested prefix was compacted away), the follower fetches the base
// checkpoint (/checkpoint?base=1) and rebuilds its applier from it. The
// checkpoint may sit at or past the retained suffix's base header; the
// engine skips whatever of the suffix it already covers, so replaying the
// suffix on top yields exactly the state a from-zero replay of the
// untruncated journal would have.
func NewApplierFrom(spec JobSpec, checkpoint io.Reader) (*Applier, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rp, err := newReplayer(spec, checkpoint)
	if err != nil {
		return nil, err
	}
	ap := &Applier{spec: spec, rp: rp, pub: core.NewPublisher(rp.model)}
	ap.snap.Store(emptySnapshot(spec, time.Now()))
	if rp.model.Fitted() {
		// Anchor the publisher with a full publication, exactly as the
		// primary's own recovery does: every later incremental round refreshes
		// against a complete view.
		if err := ap.publish(true); err != nil {
			return nil, err
		}
	}
	return ap, nil
}

// Apply consumes one decoded journal record in order.
func (ap *Applier) Apply(e JournalEntry) error {
	step, err := ap.rp.apply(e)
	if err != nil {
		return err
	}
	switch step {
	case stepFitInc, stepFitFull:
		return ap.publish(step == stepFitFull)
	case stepRestart:
		// The primary recovered and re-anchored its cold publisher with a
		// full publication; mirror it so the incremental chain stays in
		// lockstep.
		if ap.rp.model.Fitted() {
			return ap.publish(true)
		}
	}
	return nil
}

func (ap *Applier) publish(full bool) error {
	view, _, err := ap.pub.Publish(full)
	if err != nil {
		return fmt.Errorf("serve: follower publishing snapshot: %w", err)
	}
	ap.snap.Store(nextSnapshot(ap.spec.ID, view, time.Now()))
	return nil
}

// Snapshot returns the follower's latest replicated consensus snapshot.
func (ap *Applier) Snapshot() *Snapshot { return ap.snap.Load() }

// Counters reports the applier's replication progress: answers applied,
// answers consumed by fit markers, and fit rounds, all in global
// coordinates (a seed checkpoint's coverage included).
func (ap *Applier) Counters() (ingested, fitted, rounds int64) { return ap.rp.counters() }

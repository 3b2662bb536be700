package core

import (
	"fmt"
	"runtime"
	"sort"

	"cpa/internal/labelset"
	"cpa/internal/mat"
)

// Publisher is the snapshot engine behind serve's per-round consensus
// publication (DESIGN.md §8). A full publication borrows a finalize clone
// of the live model from clonePool: it owns only the state the finalize
// pipeline writes and shares the rest by reference — the global
// parameters, the score-panel cache and, structurally, the answer index
// (chunks.go) — and goes back to the pool when the view is built, so a job
// at rest holds no finalize state (syncPublishState). The clone computes
// its own expectations from the shared globals, in its call work.
// It supports two publication modes:
//
//   - Full: the complete online-prediction pipeline of §4.1 — FinalizeOnline
//     (global κ/ϕ refresh plus the reliability/imputation fixed point)
//     followed by ConsensusView. Bit-identical to the legacy
//     Clone()+FinalizeOnline()+ConsensusView() path, at a fraction of its
//     allocation cost, but still O(total answers) per round.
//   - Incremental: only items dirtied since the last publication (touched
//     by a PartialFit batch) plus a bounded round-robin sweep are
//     republished, straight from the live model's current state — the ϕ row
//     and calibrated ŷ that PartialFit just refreshed under the current
//     worker model — with only the §3.4 instantiation recomputed
//     (predictItemLocal); every other item carries its previous immutable
//     ItemConsensus entry forward. O(batch + dimensions) per round,
//     independent of stream length — even per refreshed item the cost does
//     not scale with that item's accumulated answer history.
//
// Each incremental refresh is a pure per-item function of the live model
// state: the shared inputs (emission posterior modes, cluster truth sizes)
// are frozen from the live parameters before the per-item loop, so an
// item's refreshed entry does not depend on which other items happen to be
// in the dirty set. That property is what makes the incremental-vs-full-
// rebuild equivalence testable bit-for-bit (publish_test.go) and lets the
// serving journal replay reproduce any published snapshot exactly.
//
// A Publisher must be driven from the goroutine that owns the model (the
// fitter), strictly in turn with PartialFit: the clone reads the live
// model's parameters in place. The views it returns are read-only and safe
// to share.
type Publisher struct {
	src  *Model
	view *ConsensusView

	// cursor is the round-robin sweep position: each incremental round also
	// refreshes up to |dirty| untouched items so consensus staleness from
	// drifting global parameters and worker statistics is bounded by
	// I/|batch| rounds under sustained load. Full publications reset it.
	cursor int

	dirtyBuf []int
	preds    []labelset.Set
}

// NewPublisher returns a snapshot engine for the given live model.
func NewPublisher(m *Model) *Publisher { return &Publisher{src: m} }

// View returns the most recently published view (nil before the first
// Publish).
func (p *Publisher) View() *ConsensusView { return p.view }

// Publish builds the next consensus view. With full=true (or on a cold
// publisher) it runs the complete finalize pipeline; otherwise it refreshes
// only the dirty items and returns their sorted ids (nil for a full
// rebuild). The returned dirty slice is valid until the next Publish call.
func (p *Publisher) Publish(full bool) (*ConsensusView, []int, error) {
	if !p.src.fitted {
		return nil, nil, fmt.Errorf("%w: Publish before Fit/FitStream", ErrState)
	}
	dirty := p.src.takeDirtySorted(p.dirtyBuf)
	p.dirtyBuf = dirty
	if full || p.view == nil || len(p.view.Items) != p.src.numItems {
		view, err := p.publishFull()
		return view, nil, err
	}
	dirty = p.addSweep(dirty)
	p.dirtyBuf = dirty
	view, err := p.publishRefresh(dirty)
	return view, dirty, err
}

// takeDirtySorted drains the model's publish-dirty item set (accumulated by
// PartialFit) into dst, sorted ascending.
func (m *Model) takeDirtySorted(dst []int) []int {
	dst = append(dst[:0], m.dirtyItems...)
	for _, i := range m.dirtyItems {
		m.dirtyFlags[i] = false
	}
	m.dirtyItems = m.dirtyItems[:0]
	sort.Ints(dst)
	return dst
}

// addSweep widens a sorted dirty set with up to |dirty| round-robin swept
// items (deduplicated against the batch-dirty prefix), keeping the result
// sorted. The sweep is what refreshes items whose own evidence never
// changes but whose consensus inputs — worker statistics, global
// parameters — drift with every round.
func (p *Publisher) addSweep(dirty []int) []int {
	I := p.src.numItems
	n0 := len(dirty)
	budget := n0
	if budget > I-n0 {
		budget = I - n0
	}
	for scanned := 0; scanned < I && len(dirty)-n0 < budget; scanned++ {
		i := p.cursor
		p.cursor++
		if p.cursor == I {
			p.cursor = 0
		}
		if k := sort.SearchInts(dirty[:n0], i); k < n0 && dirty[k] == i {
			continue
		}
		dirty = append(dirty, i)
	}
	sort.Ints(dirty)
	return dirty
}

// newPublishClone allocates a finalize clone for src's shape: a model shell
// holding only the state a finalize pass writes (allocateLocal), filled by
// syncPublishState on every borrow.
func newPublishClone(src *Model) *Model {
	c := &Model{
		numItems:   src.numItems,
		numWorkers: src.numWorkers,
		numLabels:  src.numLabels,
		M:          src.M,
		T:          src.T,
	}
	c.allocateLocal()
	return c
}

// syncPublishState brings the clone level with the live model. The clone
// owns only what FinalizeOnline and ConsensusView write — κ, ϕ, ŷ, the
// worker model and the product panels — and refills those buffers by copy;
// its expectations, hard signatures and finalize scratch are its calls'
// work. Everything else it shares by reference: the interner, λ, ζ, the
// sticks and the score-panel cache; the answer index is shared
// structurally (chunks.go). Sharing is safe because the fitter goroutine
// runs PartialFit and publication strictly in turn, and the clone's one
// write to shared state, bringing panels current, is value-transparent
// (panels.go): the panels its local pass builds are marked unbuilt again
// when its call work goes back to the pool. Cost is O(items·T +
// workers·M): nothing scales with the number of ingested answers, and no
// T×M×C cube is copied.
func (c *Model) syncPublishState(src *Model) {
	// A window compaction (maybeCompactWindow) replaces the live interner
	// wholesale, renumbering every set, and a pooled clone may come from
	// another job (dropShared leaves it no interner): either way its
	// id-keyed product panels would index a table they were never built
	// against.
	if c.intern != src.intern {
		c.ws.prod.reset()
	}
	c.cfg = src.cfg
	c.intern, c.panels, c.expGen = src.intern, src.panels, src.expGen
	c.lambda, c.zeta = src.lambda, src.zeta
	c.rho1, c.rho2, c.ups1, c.ups2 = src.rho1, src.rho2, src.ups1, src.ups2
	c.expertCooc = src.expertCooc

	for u := range src.perWorker {
		c.perWorker[u] = src.perWorker[u].shareClone()
	}
	for i := range src.perItem {
		c.perItem[i] = src.perItem[i].shareClone()
	}
	c.arrival = src.arrival[:len(src.arrival):len(src.arrival)]
	c.numAns, c.totalAns = src.numAns, src.totalAns
	c.seenWorkers, c.seenItems = src.seenWorkers, src.seenItems
	copy(c.revealedTruth, src.revealedTruth) // inner slices are rebind-only
	c.kappa.CopyFrom(src.kappa)
	c.phi.CopyFrom(src.phi)
	copy(c.votedSets, src.votedSets) // sets are rebind-only
	for i := range src.yhatVals {
		// ŷ is mutated in place by imputation: copy into retained buffers.
		c.yhatVals[i] = append(c.yhatVals[i][:0], src.yhatVals[i]...)
	}
	copy(c.relm, src.relm)
	copy(c.workerRelW, src.workerRelW)
	copy(c.tprM, src.tprM)
	copy(c.fprM, src.fprM)
	copy(c.tpNumU, src.tpNumU)
	copy(c.tpDenU, src.tpDenU)
	copy(c.fpNumU, src.fpNumU)
	copy(c.fpDenU, src.fpDenU)
	copy(c.voteLW, src.voteLW)
	copy(c.missLW, src.missLW)
	copy(c.labelPrev, src.labelPrev)
	c.haveRates = src.haveRates
	c.streamFitted = src.streamFitted
	c.fitted = src.fitted
	c.batchIndex = src.batchIndex
	c.lastBatchDelta = src.lastBatchDelta
	c.temp = src.temp
}

// dropShared clears every reference syncPublishState gave the clone into
// the live model, so a pooled clone pins no job's state and the next
// borrower, of any job, starts from its own.
func (c *Model) dropShared() {
	c.intern, c.panels = nil, nil
	c.lambda, c.zeta = nil, nil
	c.rho1, c.rho2, c.ups1, c.ups2 = nil, nil, nil, nil
	c.expertCooc = nil
	clear(c.perWorker)
	clear(c.perItem)
	c.arrival = nil
	clear(c.revealedTruth)
	clear(c.votedSets)
}

// publishHook, when set, sees each full publication's clone before it goes
// back to its pool. A test seam: set it while no model is in use.
var publishHook func(c *Model)

// publishParallelism is the shard count of every publication: all cores.
// Publication sits on the critical path of consensus freshness, and the
// block-order reductions of mat.Sharded make its output bit-identical for
// any shard count, so it does not follow the job's Config.Parallelism —
// that knob steers fitting (PartialFit, Fit) only.
func publishParallelism() int { return runtime.GOMAXPROCS(0) }

// publishFull borrows a clone, syncs it and runs the legacy finalize
// pipeline on it, with the clone's map and reduce steps on all cores, then
// gives the clone back. The view copies what it takes from the clone.
func (p *Publisher) publishFull() (*ConsensusView, error) {
	src := p.src
	k := src.shapeKey()
	c := clonePool.get(k)
	if c == nil {
		c = newPublishClone(src)
	}
	c.syncPublishState(src)
	c.cfg.Parallelism = publishParallelism()
	p.cursor = 0
	c.FinalizeOnline()
	view, err := c.ConsensusView()
	if publishHook != nil {
		publishHook(c)
	}
	c.dropShared()
	clonePool.put(k, c)
	if err != nil {
		return nil, err
	}
	p.view = view
	return view, nil
}

// publishRefresh re-publishes exactly the given sorted dirty items from the
// live model's current state and carries every other item's previous entry
// forward unchanged. The live model already holds each dirty item's ϕ row
// and calibrated ŷ — PartialFit refreshed them this round under the current
// worker model — so the refresh is the §3.4 instantiation alone, with
// cluster weights read from ϕ (predictItemLocal): O(1) per item regardless
// of how many answers the item has accumulated, and a pure per-item
// function of the live state (the shared inputs below are frozen before the
// per-item loop), independent of the dirty-set choice.
func (p *Publisher) publishRefresh(dirty []int) (*ConsensusView, error) {
	src := p.src
	prior := src.clusterPriors()
	defer src.releaseScratch()
	src.expandItems(dirty)

	if cap(p.preds) < len(dirty) {
		p.preds = make([]labelset.Set, len(dirty))
	}
	preds := p.preds[:len(dirty)]
	mat.ParallelFor(len(dirty), mat.Shards(publishParallelism(), len(dirty)), func(_, lo, hi int) {
		sc := newPredictScratch(src)
		for k := lo; k < hi; k++ {
			preds[k] = src.predictItemLocal(dirty[k], prior, sc)
		}
	})

	// Assemble the view: fresh entries for dirty items, the previous view's
	// immutable entries (shared, never copied) for everything else.
	items := make([]ItemConsensus, len(p.view.Items))
	copy(items, p.view.Items)
	for k, i := range dirty {
		items[i] = src.itemConsensus(i, preds[k])
	}
	view := &ConsensusView{Items: items, Stats: src.Stats()}
	p.view = view
	return view, nil
}

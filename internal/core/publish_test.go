package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/datasets"
	"cpa/internal/labelset"
)

// publishStream loads a shuffled image-profile stream — the serve-shaped
// workload: interleaved items and workers in arrival order.
func publishStream(t testing.TB, seed int64) *answers.Dataset {
	t.Helper()
	ds, _, err := datasets.Load("image", 0.08, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Shuffled(rand.New(rand.NewSource(seed)))
}

// sameView asserts two consensus views are bit-for-bit identical:
// label sets, candidate lists, float confidences, and stats.
func sameView(t testing.TB, round int, want, got *ConsensusView) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("round %d: stats diverged:\nwant %+v\ngot  %+v", round, want.Stats, got.Stats)
	}
	if len(want.Items) != len(got.Items) {
		t.Fatalf("round %d: %d vs %d items", round, len(want.Items), len(got.Items))
	}
	for i := range want.Items {
		sameItemConsensus(t, round, i, want.Items[i], got.Items[i])
	}
}

func sameItemConsensus(t testing.TB, round, i int, want, got ItemConsensus) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round %d item %d diverged:\nwant %+v\ngot  %+v", round, i, want, got)
	}
}

// TestPublishFullMatchesLegacy pins the reusable-clone plumbing: at every
// round of a long shuffled stream, the publisher's full mode — shared-prefix
// chunk storage, retained buffers, no per-round deep copy — must be
// bit-identical to the from-scratch Clone()+FinalizeOnline()+ConsensusView()
// rebuild the serving layer used before, across Parallelism settings.
func TestPublishFullMatchesLegacy(t *testing.T) {
	ds := publishStream(t, 21)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			cfg := Config{Seed: 21, BatchSize: 64, Parallelism: par}
			model, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			pub := NewPublisher(model)
			round := 0
			for _, b := range ds.Batches(cfg.BatchSize) {
				if err := model.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				round++
				got, dirty, err := pub.Publish(true)
				if err != nil {
					t.Fatal(err)
				}
				if dirty != nil {
					t.Fatalf("round %d: full publish reported a dirty set", round)
				}
				legacy := model.Clone()
				legacy.FinalizeOnline()
				want, err := legacy.ConsensusView()
				if err != nil {
					t.Fatal(err)
				}
				sameView(t, round, want, got)
			}
			if round < 10 {
				t.Fatalf("stream too short to exercise publication: %d rounds", round)
			}
		})
	}
}

// TestPublishBatchFittedMatchesLegacy pins the state syncPublishState
// copies for a model trained by batch Fit. FinalizeOnline is a no-op there,
// so the view reads the clone's copied state — labelPrev included — as
// synced, never rewritten. A streamed model of the same shape publishes
// first, so the batch model's publication borrows the shell it gave back
// to clonePool, with the streamed job's state still in its buffers.
func TestPublishBatchFittedMatchesLegacy(t *testing.T) {
	ds := publishStream(t, 51)
	batch, err := NewModel(Config{Seed: 51}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Fit(ds); err != nil {
		t.Fatal(err)
	}
	stream, err := NewModel(Config{Seed: 52, BatchSize: 64}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if batch.shapeKey() != stream.shapeKey() {
		t.Fatal("the two models must share one clone shape")
	}
	for _, b := range ds.Shuffled(rand.New(rand.NewSource(52))).Batches(64) {
		if err := stream.PartialFit(b.Answers); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := NewPublisher(stream).Publish(true); err != nil {
		t.Fatal(err)
	}
	got, _, err := NewPublisher(batch).Publish(true)
	if err != nil {
		t.Fatal(err)
	}
	legacy := batch.Clone()
	legacy.FinalizeOnline()
	want, err := legacy.ConsensusView()
	if err != nil {
		t.Fatal(err)
	}
	sameView(t, 0, want, got)
}

// TestIncrementalPublishMatchesFullRebuild is the equivalence test of the
// incremental engine: at every round of a long shuffled stream, each entry
// the incremental publisher refreshed must be bit-identical to what a full
// rebuild — the same refresh applied to every item — produces that round,
// and every carried-forward entry must be bit-identical to the previous
// view's. Together the two cover the whole view every round.
func TestIncrementalPublishMatchesFullRebuild(t *testing.T) {
	ds := publishStream(t, 33)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			cfg := Config{Seed: 33, BatchSize: 64, Parallelism: par}
			newModel := func() *Model {
				m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			// Two identical models advanced in lockstep: inc publishes
			// incrementally, all rebuilds every item with the same refresh.
			incModel, allModel := newModel(), newModel()
			incPub, allPub := NewPublisher(incModel), NewPublisher(allModel)
			allItems := make([]int, ds.NumItems)
			for i := range allItems {
				allItems[i] = i
			}

			round, refreshed := 0, 0
			for _, b := range ds.Batches(cfg.BatchSize) {
				if err := incModel.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				if err := allModel.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				round++
				prev := incPub.View()
				incView, dirty, err := incPub.Publish(false)
				if err != nil {
					t.Fatal(err)
				}
				// Full rebuild reference: every item refreshed, same engine.
				allModel.takeDirtySorted(nil)
				var allView *ConsensusView
				if allPub.View() == nil {
					if allView, _, err = allPub.Publish(true); err != nil {
						t.Fatal(err)
					}
				} else if allView, err = allPub.publishRefresh(allItems); err != nil {
					t.Fatal(err)
				}

				if prev == nil {
					// Cold start publishes the full pipeline on both sides.
					if dirty != nil {
						t.Fatalf("round %d: cold publisher reported a dirty set", round)
					}
					sameView(t, round, allView, incView)
					continue
				}
				if len(dirty) == 0 {
					t.Fatalf("round %d: no dirty items after a PartialFit round", round)
				}
				refreshed += len(dirty)
				isDirty := make(map[int]bool, len(dirty))
				for _, i := range dirty {
					isDirty[i] = true
				}
				for i := range incView.Items {
					if isDirty[i] {
						// Refreshed entries ≡ the full rebuild's, bit-for-bit.
						sameItemConsensus(t, round, i, allView.Items[i], incView.Items[i])
					} else {
						// Clean entries carry forward unchanged.
						sameItemConsensus(t, round, i, prev.Items[i], incView.Items[i])
					}
				}
				if !reflect.DeepEqual(allView.Stats, incView.Stats) {
					t.Fatalf("round %d: stats diverged:\nwant %+v\ngot  %+v", round, allView.Stats, incView.Stats)
				}
			}
			if round < 10 {
				t.Fatalf("stream too short: %d rounds", round)
			}
			if refreshed >= round*ds.NumItems {
				t.Fatalf("incremental publisher refreshed everything (%d entries over %d rounds) — not incremental", refreshed, round)
			}
		})
	}
}

// TestCloneSharedStorageIsolation pins the structural-sharing discipline of
// the chunked answer index: after a clone, both the source and the clone
// keep ingesting and fitting independently, and each must end bit-identical
// to a fresh model fed its own full sequence — no cross-talk through the
// shared chunks. Clone's privacy is pinned structurally too: the two never
// share a panel cache or any work-scratch buffer (the Publisher's clone is
// the one model that shares a cache, by design).
func TestCloneSharedStorageIsolation(t *testing.T) {
	ds := publishStream(t, 7)
	all := ds.Answers()
	if len(all) < 400 {
		t.Fatalf("stream too short: %d answers", len(all))
	}
	cfg := Config{Seed: 7, BatchSize: 64}
	prefix, tailA, tailB := all[:256], all[256:320], all[320:400]

	run := func(batches ...[]answers.Answer) *Model {
		m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := m.PartialFit(b); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	src := run(prefix)
	clone := src.Clone()
	if err := src.PartialFit(tailA); err != nil {
		t.Fatal(err)
	}
	if err := clone.PartialFit(tailB); err != nil {
		t.Fatal(err)
	}

	refA, refB := run(prefix, tailA), run(prefix, tailB)
	for _, c := range []struct {
		name      string
		got, want *Model
	}{{"source", src, refA}, {"clone", clone, refB}} {
		c.got.FinalizeOnline()
		c.want.FinalizeOnline()
		gotView, err := c.got.ConsensusView()
		if err != nil {
			t.Fatal(err)
		}
		wantView, err := c.want.ConsensusView()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantView, gotView) {
			t.Fatalf("%s diverged from its uninterrupted reference after shared-storage clone", c.name)
		}
	}
	if src.panels == clone.panels {
		t.Fatal("Clone shares the source's score-panel cache")
	}
	if f := sharedScratchField(&src.ws, &clone.ws); f != "" {
		t.Fatalf("Clone shares the source's work-scratch buffer %s", f)
	}
}

// sharedScratchField names the first workScratch field whose storage a and
// b share (any slice, pointer or matrix, nested structs included), or "".
func sharedScratchField(a, b *workScratch) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for k := 0; k < va.NumField(); k++ {
		if sharesStorage(va.Field(k), vb.Field(k)) {
			return va.Type().Field(k).Name
		}
	}
	return ""
}

func sharesStorage(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice:
		return a.Cap() > 0 && b.Cap() > 0 && a.Pointer() == b.Pointer()
	case reflect.Pointer:
		return !a.IsNil() && a.Pointer() == b.Pointer()
	case reflect.Struct:
		for k := 0; k < a.NumField(); k++ {
			if sharesStorage(a.Field(k), b.Field(k)) {
				return true
			}
		}
	}
	return false
}

// loadShuffled loads a shuffled profile stream at the given scale.
func loadShuffled(t testing.TB, profile string, scale float64, seed int64) *answers.Dataset {
	t.Helper()
	ds, _, err := datasets.Load(profile, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Shuffled(rand.New(rand.NewSource(seed)))
}

// chainExpert installs a synthetic expert matrix, "label c implies c+1".
func chainExpert(t testing.TB, m *Model) {
	t.Helper()
	C := m.numLabels
	cooc := make([][]float64, C)
	for c := range cooc {
		cooc[c] = make([]float64, C)
		cooc[c][(c+1)%C] = 0.9
	}
	if err := m.SetExpertCooccurrence(cooc); err != nil {
		t.Fatal(err)
	}
}

// sameLiveBits asserts two live models hold bit-identical fitting state:
// parameters, ŷ and the whole worker model.
func sameLiveBits(t testing.TB, what string, want, got *Model) {
	t.Helper()
	sameModelBits(t, what, want, got)
	for _, f := range []struct {
		name      string
		want, got []float64
	}{
		{"rho1", want.rho1, got.rho1},
		{"rho2", want.rho2, got.rho2},
		{"ups1", want.ups1, got.ups1},
		{"ups2", want.ups2, got.ups2},
		{"workerRelW", want.workerRelW, got.workerRelW},
		{"tprM", want.tprM, got.tprM},
		{"fprM", want.fprM, got.fprM},
		{"tpNumU", want.tpNumU, got.tpNumU},
		{"tpDenU", want.tpDenU, got.tpDenU},
		{"fpNumU", want.fpNumU, got.fpNumU},
		{"fpDenU", want.fpDenU, got.fpDenU},
		{"voteLW", want.voteLW, got.voteLW},
		{"missLW", want.missLW, got.missLW},
		{"labelPrev", want.labelPrev, got.labelPrev},
		{"runTP", want.runTP, got.runTP},
		{"runTPD", want.runTPD, got.runTPD},
		{"runFP", want.runFP, got.runFP},
		{"runFPD", want.runFPD, got.runFPD},
		{"runAgree", want.runAgree, got.runAgree},
		{"runAgreeD", want.runAgreeD, got.runAgreeD},
		{"runPrevN", want.runPrevN, got.runPrevN},
		{"runPrevD", want.runPrevD, got.runPrevD},
	} {
		sameBits(t, what+": "+f.name, f.want, f.got)
	}
	if !slices.EqualFunc(want.votedSets, got.votedSets, labelset.Set.Equal) {
		t.Fatalf("%s: voted lists diverged", what)
	}
	if want.expGen != got.expGen || want.haveRates != got.haveRates || want.lastBatchDelta != got.lastBatchDelta {
		t.Fatalf("%s: expGen/haveRates/lastBatchDelta diverged", what)
	}
}

// checkCloneShares asserts the publisher's finalize clone aliases the live
// model's read-only globals and score-panel cache, owns private copies of
// what finalize writes, and holds no training scratch, call work or rng;
// and that the live streaming model holds none of batch Fit's scratch. It
// runs at publication time, before the clone goes back to its pool.
func checkCloneShares(t testing.TB, what string, c, m *Model) {
	t.Helper()
	if c.lambda != m.lambda || c.zeta != m.zeta || c.panels != m.panels || c.intern != m.intern {
		t.Fatalf("%s: clone does not alias the live λ/ζ/panels/interner", what)
	}
	if c.work != nil || m.work != nil {
		t.Fatalf("%s: a model kept its call work after the publication", what)
	}
	if c.kappa == m.kappa || c.phi == m.phi || &c.yhatVals[0] == &m.yhatVals[0] ||
		&c.tpNumU[0] == &m.tpNumU[0] || &c.voteLW[0] == &m.voteLW[0] || &c.labelPrev[0] == &m.labelPrev[0] {
		t.Fatalf("%s: clone shares state that finalize writes", what)
	}
	ws := &c.ws
	if c.rng != nil ||
		ws.prevKappa != nil || ws.prevPhi != nil || ws.psiMean != nil || c.runTP != nil {
		t.Fatalf("%s: clone holds training scratch, running SVI statistics or an rng", what)
	}
	if m.ws.prevKappa != nil || m.ws.prevPhi != nil || m.ws.psiMean != nil {
		t.Fatalf("%s: streaming model holds batch Fit scratch", what)
	}
}

// checkAtRest asserts that a model between calls holds no borrowed working
// memory, and that a clone given back to its pool holds no reference into
// the live model's storage.
func checkAtRest(t testing.TB, what string, m, returned *Model) {
	t.Helper()
	if m.work != nil {
		t.Fatalf("%s: the live model kept its call work", what)
	}
	if returned == nil {
		t.Fatalf("%s: no finalize clone went back to its pool", what)
	}
	if returned.intern != nil || returned.panels != nil || returned.lambda != nil || returned.work != nil {
		t.Fatalf("%s: the returned clone kept the live interner, panel cache, globals or call work", what)
	}
	live := storageOf(m)
	for addr := range storageOf(returned) {
		if live[addr] {
			t.Fatalf("%s: the returned clone still reaches live storage at %#x", what, addr)
		}
	}
}

// TestPublishNeverPerturbsLiveFit pins that publication only reads the live
// fit, although the publisher's clone shares its globals and panel cache:
// one model publishes after every round (a full publication every third
// round, incremental ones between), a twin publishes nothing, and after
// every round the two live models must agree bit for bit. Panels on and
// off, an expert matrix, and an AnswerWindow that compacts several times.
func TestPublishNeverPerturbsLiveFit(t *testing.T) {
	for _, tc := range []struct {
		name, profile string
		window        int
		expert, noPan bool
	}{
		{name: "topic", profile: "topic"},
		{name: "image", profile: "image"},
		{name: "image/panels-off", profile: "image", noPan: true},
		{name: "topic/expert", profile: "topic", expert: true},
		{name: "image/window", profile: "image", window: 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := loadShuffled(t, tc.profile, 0.08, 11)
			cfg := Config{Seed: 11, BatchSize: 64, AnswerWindow: tc.window}
			newModel := func() *Model {
				m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
				if err != nil {
					t.Fatal(err)
				}
				if tc.expert {
					chainExpert(t, m)
				}
				m.panels.disabled = tc.noPan
				return m
			}
			live, bare := newModel(), newModel()
			pub := NewPublisher(live)
			compactions, fulls := 0, 0
			var what string
			var published, returned *Model
			publishHook = func(c *Model) {
				published = c
				checkCloneShares(t, what, c, live)
			}
			prevPut := poolPutHook
			poolPutHook = func(x any) {
				if c, ok := x.(*Model); ok {
					returned = c
				}
				if prevPut != nil {
					prevPut(x)
				}
			}
			t.Cleanup(func() { publishHook, poolPutHook = nil, prevPut })
			for round, b := range ds.Batches(cfg.BatchSize) {
				intern := live.intern
				if err := live.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				if err := bare.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				if live.intern != intern {
					compactions++
				}
				full := round%3 == 0
				what = fmt.Sprintf("round %d (full=%v)", round, full)
				published, returned = nil, nil
				if _, _, err := pub.Publish(full); err != nil {
					t.Fatal(err)
				}
				sameLiveBits(t, what, bare, live)
				if full {
					fulls++
					if published == nil || returned != published {
						t.Fatalf("%s: the published clone did not go back to its pool", what)
					}
					checkAtRest(t, what, live, returned)
				}
			}
			if fulls < 5 {
				t.Fatalf("only %d full publications", fulls)
			}
			if tc.window > 0 && compactions < 2 {
				t.Fatalf("AnswerWindow compacted %d times, want at least 2", compactions)
			}
			if !tc.noPan && live.panels.slots == 0 {
				t.Fatal("no panels admitted: the shared cache went unexercised")
			}
		})
	}
}

// TestPublishAcrossWindowCompaction drives the publisher through AnswerWindow
// compactions, which swap the live interner and reset the shared panel
// cache. A twin model serves as the legacy reference: its full rounds are a
// fresh Clone()+FinalizeOnline()+ConsensusView(), its incremental rounds
// refresh that chain. Full and incremental views must match bit for bit on
// every round, including full publications right after a compaction.
func TestPublishAcrossWindowCompaction(t *testing.T) {
	ds := publishStream(t, 23)
	cfg := Config{Seed: 23, BatchSize: 64, AnswerWindow: 192}
	newModel := func() *Model {
		m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	live, twin := newModel(), newModel()
	pub, ref := NewPublisher(live), NewPublisher(twin)
	compactedFull, incRounds := 0, 0
	for round, b := range ds.Batches(cfg.BatchSize) {
		intern := live.intern
		if err := live.PartialFit(b.Answers); err != nil {
			t.Fatal(err)
		}
		if err := twin.PartialFit(b.Answers); err != nil {
			t.Fatal(err)
		}
		compacted := live.intern != intern
		full := round%3 == 0 || compacted
		got, dirty, err := pub.Publish(full)
		if err != nil {
			t.Fatal(err)
		}
		var want *ConsensusView
		var wantDirty []int
		if full {
			legacy := twin.Clone()
			legacy.FinalizeOnline()
			if want, err = legacy.ConsensusView(); err != nil {
				t.Fatal(err)
			}
			// What Publish does on a full round, minus the clone.
			twin.takeDirtySorted(nil)
			ref.view, ref.cursor = want, 0
			if compacted {
				compactedFull++
			}
		} else {
			if want, wantDirty, err = ref.Publish(false); err != nil {
				t.Fatal(err)
			}
			incRounds++
		}
		if !reflect.DeepEqual(wantDirty, dirty) {
			t.Fatalf("round %d: dirty sets diverged", round)
		}
		sameView(t, round, want, got)
	}
	if compactedFull < 2 || incRounds < 5 {
		t.Fatalf("%d full publications after a compaction, %d incremental rounds: too few to exercise the swap", compactedFull, incRounds)
	}
}

// TestPublishedViewsShareVotedLists pins the views' shared voted lists: every view
// keeps the Candidates it was published with while later rounds extend the
// same items' voted lists, and the bits of every view and dirty set equal
// those of the copying publisher this one replaced (the golden SHA-256s
// were recorded from it). Topic and image, full and incremental rounds, an
// expert matrix and a compacting AnswerWindow.
func TestPublishedViewsShareVotedLists(t *testing.T) {
	for _, tc := range []struct {
		name, profile string
		window        int
		expert        bool
		golden        string
	}{
		{name: "topic", profile: "topic"},
		{name: "image", profile: "image"},
		{name: "topic/expert", profile: "topic", expert: true},
		{name: "image/window", profile: "image", window: 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := loadShuffled(t, tc.profile, 0.08, 19)
			cfg := Config{Seed: 19, BatchSize: 64, AnswerWindow: tc.window}
			m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			if tc.expert {
				chainExpert(t, m)
			}
			pub := NewPublisher(m)
			h := sha256.New()
			var views []*ConsensusView
			var copies [][][]Candidate
			extended, compactions := 0, 0
			for round, b := range ds.Batches(cfg.BatchSize) {
				before, intern := append([]labelset.Set(nil), m.votedSets...), m.intern
				if err := m.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				if m.intern != intern {
					compactions++
				}
				for i := range before {
					if round > 0 && m.votedSets[i].Len() > before[i].Len() && !before[i].IsEmpty() {
						extended++
					}
				}
				view, dirty, err := pub.Publish(round%3 == 0)
				if err != nil {
					t.Fatal(err)
				}
				hashView(h, view, dirty)
				views = append(views, view)
				cands := make([][]Candidate, len(view.Items))
				for i, it := range view.Items {
					cands[i] = append([]Candidate(nil), it.Candidates...)
				}
				copies = append(copies, cands)
			}
			for r, v := range views {
				for i, it := range v.Items {
					if !reflect.DeepEqual(copies[r][i], it.Candidates) {
						t.Fatalf("round %d item %d: published candidates %v changed to %v", r, i, copies[r][i], it.Candidates)
					}
				}
			}
			if extended == 0 {
				t.Fatal("no round extended a published item's voted list")
			}
			if tc.window > 0 && compactions < 2 {
				t.Fatalf("AnswerWindow compacted %d times, want at least 2", compactions)
			}
			got := fmt.Sprintf("%x", h.Sum(nil))
			t.Logf("%d views, %d voted-list extensions, sha256 %s", len(views), extended, got)
			if want := viewGolden[tc.name]; got != want {
				t.Fatalf("views hash %s, want %s", got, want)
			}
		})
	}
}

// viewGolden holds the SHA-256 of TestPublishedViewsShareVotedLists' views and dirty
// sets under the copying publisher (identical on the avx2 and scalar
// kernels).
var viewGolden = map[string]string{
	"topic":        "ede6d32bbcdb4a4f5a7845de907c3774338dffeb477d6e02062bfedd039fd2fd",
	"image":        "a871003e92923890bbfe14e302f527289e134f340fc847bac0f1d76e7e607cbc",
	"topic/expert": "8869e3858bd1046c78e7c39d7d24407842cd97c7f0e71837dd13576fb2b26ee0",
	"image/window": "f13f640e0694a7cd0ef29c97a34125934c7cb32c19d1e1813aeda48b3924ef80",
}

// hashView feeds a view and its dirty set to h: every label, candidate and
// stat, and every confidence bit for bit — the byte stream the golden
// hashes were recorded over, when a view held its candidate labels and
// confidences as two aligned slices.
func hashView(h hash.Hash, v *ConsensusView, dirty []int) {
	fmt.Fprintf(h, "%+v|%v|", v.Stats, dirty)
	for _, it := range v.Items {
		labels, conf := splitCandidates(it.Candidates)
		fmt.Fprintf(h, "%v|%v|", it.Labels, labels)
		for _, c := range conf {
			fmt.Fprintf(h, "%x,", math.Float64bits(c))
		}
	}
}

// splitCandidates returns a candidate list's labels and confidences as two
// aligned slices, nil for an empty list.
func splitCandidates(cs []Candidate) (labels []int, conf []float64) {
	for _, c := range cs {
		labels = append(labels, c.Label)
		conf = append(conf, c.Confidence)
	}
	return labels, conf
}

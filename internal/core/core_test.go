package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"cpa/internal/answers"
	"cpa/internal/datasets"
	"cpa/internal/labelset"
	"cpa/internal/metrics"
	"cpa/internal/simulate"
)

// table1Dataset is the paper's Table 1 motivating example (0-based labels).
func table1Dataset(t testing.TB) *answers.Dataset {
	t.Helper()
	d, err := answers.NewDataset("table1", 4, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		item, worker int
		labels       []int
	}{
		{0, 0, []int{3, 4}}, {0, 1, []int{3, 4}}, {0, 2, []int{3}}, {0, 3, []int{0}}, {0, 4, []int{4}},
		{1, 0, []int{1, 2}}, {1, 1, []int{0, 3}}, {1, 2, []int{3}}, {1, 3, []int{1}}, {1, 4, []int{2, 3}},
		{2, 0, []int{0, 1}}, {2, 1, []int{3}}, {2, 2, []int{3}}, {2, 3, []int{2}}, {2, 4, []int{3, 4}},
		{3, 0, []int{0, 1}}, {3, 1, []int{1, 2}}, {3, 2, []int{3}}, {3, 3, []int{3}}, {3, 4, []int{0, 1, 2}},
	}
	for _, r := range rows {
		if err := d.Add(r.item, r.worker, labelset.FromSlice(r.labels)); err != nil {
			t.Fatal(err)
		}
	}
	truth := [][]int{{4}, {2, 3}, {3, 4}, {0, 1, 2}}
	for i, tr := range truth {
		if err := d.SetTruth(i, labelset.FromSlice(tr)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MaxCommunities: -1},
		{Alpha: -1},
		{GammaPrior: -0.5},
		{Tol: -1},
		{Parallelism: -2},
		{ForgettingRate: 0.3},
		{ForgettingRate: 1.5},
		{ExhaustiveCap: 30},
	}
	for i, cfg := range bad {
		if _, err := NewModel(cfg, 2, 2, 2); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	if _, err := NewModel(DefaultConfig(), 0, 1, 1); err == nil {
		t.Error("zero items should fail")
	}
	// Answer references hold 32-bit item and worker indices.
	huge := math.MaxInt32
	huge++
	if _, err := NewModel(DefaultConfig(), huge, 1, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("%d items: err %v, want ErrConfig", huge, err)
	}
	if _, err := NewModel(DefaultConfig(), 1, huge, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("%d workers: err %v, want ErrConfig", huge, err)
	}
}

// TestAnswerRefsAre8Bytes pins the per-answer footprint: every answer costs
// one 8-byte ansRef in perWorker, one in perItem and a 4-byte item id in
// the arrival index, 20 bytes in all.
func TestAnswerRefsAre8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(ansRef{}); got != 8 {
		t.Errorf("ansRef is %d bytes, want 8", got)
	}
	var m Model
	if got := unsafe.Sizeof(m.arrival[0]); got != 4 {
		t.Errorf("an arrival entry is %d bytes, want 4", got)
	}
}

func TestModelAccessors(t *testing.T) {
	m, err := NewModel(Config{Seed: 1, MaxCommunities: 4, MaxClusters: 6}, 10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if i, u, c := m.Dims(); i != 10 || u != 8 || c != 5 {
		t.Errorf("Dims = %d/%d/%d", i, u, c)
	}
	if mm, tt := m.Truncations(); mm != 4 || tt != 6 {
		t.Errorf("Truncations = %d/%d", mm, tt)
	}
	if m.Fitted() {
		t.Error("fresh model should not be fitted")
	}
	if m.WorkerCommunity(-1) != -1 || m.ItemCluster(99) != -1 {
		t.Error("out-of-range accessors should return -1")
	}
	if m.WorkerReliability(-1) != 0 || m.CommunityReliability(99) != 0 {
		t.Error("out-of-range reliabilities should be 0")
	}
	if _, err := m.Predict(); err == nil {
		t.Error("Predict before Fit should fail")
	}
	if _, err := m.PredictItem(0); err == nil {
		t.Error("PredictItem before Fit should fail")
	}
}

func TestTruncationsClampToData(t *testing.T) {
	m, err := NewModel(Config{Seed: 1, MaxCommunities: 100, MaxClusters: 100}, 5, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mm, tt := m.Truncations(); mm != 3 || tt != 5 {
		t.Errorf("Truncations should clamp to (3,5), got (%d,%d)", mm, tt)
	}
}

func TestFitValidations(t *testing.T) {
	m, _ := NewModel(Config{Seed: 1}, 4, 5, 5)
	if _, err := m.Fit(nil); err == nil {
		t.Error("nil dataset should fail")
	}
	empty, _ := answers.NewDataset("e", 4, 5, 5)
	if _, err := m.Fit(empty); err == nil {
		t.Error("empty dataset should fail")
	}
	wrong, _ := answers.NewDataset("w", 3, 5, 5)
	if err := wrong.Add(0, 0, labelset.Of(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(wrong); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := m.FitStream(wrong); err == nil {
		t.Error("FitStream dimension mismatch should fail")
	}
}

func TestTable1MotivatingExample(t *testing.T) {
	// CPA must beat majority voting on the paper's own motivating example:
	// MV gets i1 wrong (adds label 3) and i4 incomplete (misses 0 and 2).
	d := table1Dataset(t)
	agg := NewAggregator(Config{Seed: 3, MaxCommunities: 3, MaxClusters: 4})
	pred, err := agg.Aggregate(d)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := metrics.Evaluate(d, pred)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Table 1 CPA predictions: %v %v %v %v -> %v", pred[0], pred[1], pred[2], pred[3], pr)
	// MV yields P=0.625 R=0.458 on this example. CPA should clearly beat it.
	if pr.Precision <= 0.625 {
		t.Errorf("CPA precision %.3f should beat MV's 0.625", pr.Precision)
	}
	if pr.Recall <= 0.458 {
		t.Errorf("CPA recall %.3f should beat MV's 0.458", pr.Recall)
	}
}

func TestFitConvergesAndTracksStats(t *testing.T) {
	ds, _, err := datasets.Load("image", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Config{Seed: 1}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Fitted() {
		t.Error("model should be fitted")
	}
	if stats.Iterations == 0 || len(stats.Deltas) != stats.Iterations {
		t.Errorf("stats inconsistent: %+v", stats)
	}
	if !stats.Converged && stats.Iterations < DefaultConfig().MaxIter {
		t.Error("stopped early without convergence")
	}
	if stats.FinalDelta() > 0.5 {
		t.Errorf("final delta %.4f suspiciously large", stats.FinalDelta())
	}
	// The data log-likelihood surrogate should not degrade materially from
	// start to end (it is a surrogate, not the ELBO, so tiny wobbles from
	// the annealed early iterations are tolerated).
	first := stats.DataLogLik[0]
	last := stats.DataLogLik[len(stats.DataLogLik)-1]
	if last < first-0.001*math.Abs(first) {
		t.Errorf("data log-lik decreased: %.1f -> %.1f", first, last)
	}
	// Posterior sanity: responsibilities on the simplex, Dirichlet params
	// positive.
	for u := 0; u < ds.NumWorkers; u++ {
		sum := 0.0
		for j, v := range m.kappa.Row(u) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("kappa[%d][%d] = %v", u, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("kappa row %d sums to %v", u, sum)
		}
	}
	for i := 0; i < ds.NumItems; i++ {
		sum := 0.0
		for _, v := range m.phi.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("phi row %d sums to %v", i, sum)
		}
	}
	for k, v := range m.lambda.Data() {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("lambda[%d] = %v", k, v)
		}
	}
	for k, v := range m.zeta.Data() {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("zeta[%d] = %v", k, v)
		}
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	ds, _, err := datasets.Load("topic", 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []labelset.Set {
		agg := NewAggregator(Config{Seed: 11})
		pred, err := agg.Aggregate(ds)
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("prediction differs at item %d under same seed", i)
		}
	}
}

// TestParallelMatchesSerial pins batch aggregation to the same predictions
// for every Parallelism: reductions sum fixed per-block buffers in block
// order, and the dataset spans more than one 256-item block.
func TestParallelMatchesSerial(t *testing.T) {
	ds, _, err := datasets.Load("image", 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	predict := func(p int) []labelset.Set {
		agg := NewAggregator(Config{Seed: 2, Parallelism: p})
		pred, err := agg.Aggregate(ds)
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	serial := predict(1)
	for _, p := range []int{2, 4, 8} {
		samePredictions(t, fmt.Sprintf("Parallelism=%d vs serial", p), serial, predict(p))
	}
}

func TestCPAOutperformsMajorityVoteOnSimulatedCrowd(t *testing.T) {
	ds, _, err := datasets.Load("image", 0.08, 17)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(Config{Seed: 1})
	pred, err := agg.Aggregate(ds)
	if err != nil {
		t.Fatal(err)
	}
	cpa, err := metrics.Evaluate(ds, pred)
	if err != nil {
		t.Fatal(err)
	}
	// Plain MV on the same data (threshold 0.5, argmax fallback).
	mvPred := make([]labelset.Set, ds.NumItems)
	for i := 0; i < ds.NumItems; i++ {
		votes := map[int]int{}
		n := 0
		ds.ForItem(i, func(a answers.Answer) {
			n++
			a.Labels.Range(func(c int) bool {
				votes[c]++
				return true
			})
		})
		s := labelset.New(ds.NumLabels)
		best, bestV := -1, 0
		for c, v := range votes {
			if float64(v) > 0.5*float64(n) {
				s.Add(c)
			}
			if v > bestV {
				best, bestV = c, v
			}
		}
		if s.IsEmpty() && best >= 0 {
			s.Add(best)
		}
		mvPred[i] = s
	}
	mv, err := metrics.Evaluate(ds, mvPred)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CPA=%v MV=%v", cpa, mv)
	if cpa.F1() <= mv.F1() {
		t.Errorf("CPA F1 %.3f should beat MV %.3f", cpa.F1(), mv.F1())
	}
	if cpa.Recall <= mv.Recall {
		t.Errorf("CPA recall %.3f should beat MV %.3f", cpa.Recall, mv.Recall)
	}
}

func TestSpammerSuppression(t *testing.T) {
	// The model's reliability weights must separate spammers from reliable
	// workers (the mechanism behind Fig. 4's robustness).
	ds, meta, err := datasets.Load("image", 0.08, 23)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(Config{Seed: 5})
	if _, err := agg.Aggregate(ds); err != nil {
		t.Fatal(err)
	}
	model := agg.Model()
	var relRel, relSpam []float64
	for u := 0; u < ds.NumWorkers; u++ {
		switch {
		case meta.WorkerTypes[u] == simulate.Reliable:
			relRel = append(relRel, model.WorkerReliability(u))
		case meta.WorkerTypes[u].IsSpammer():
			relSpam = append(relSpam, model.WorkerReliability(u))
		}
	}
	if len(relRel) == 0 || len(relSpam) == 0 {
		t.Skip("sample lacks one of the populations")
	}
	mr := metrics.Summarize(relRel).Mean
	ms := metrics.Summarize(relSpam).Mean
	t.Logf("mean reliability: reliable=%.3f spammers=%.3f", mr, ms)
	if mr <= ms+0.15 {
		t.Errorf("reliable workers (%.3f) should clearly out-rank spammers (%.3f)", mr, ms)
	}
}

func TestNonparametricAdaptivity(t *testing.T) {
	// R4: the effective number of communities/clusters must sit strictly
	// below the truncations (unused sticks decay) yet above 1.
	ds, _, err := datasets.Load("image", 0.08, 31)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(Config{Seed: 7, MaxCommunities: 15, MaxClusters: 30})
	if _, err := agg.Aggregate(ds); err != nil {
		t.Fatal(err)
	}
	m := agg.Model()
	ec := m.EffectiveCommunities(0.02)
	et := m.EffectiveClusters(0.02)
	t.Logf("effective communities=%d clusters=%d", ec, et)
	if ec < 1 || et < 1 {
		t.Error("at least one effective component required")
	}
	weights := m.CommunityWeights()
	sum := 0.0
	for _, w := range weights {
		if w < -1e-9 {
			t.Errorf("negative community weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("community weights sum to %v", sum)
	}
	cw := m.ClusterWeights()
	sum = 0.0
	for _, w := range cw {
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("cluster weights sum to %v", sum)
	}
}

func TestCloneIndependence(t *testing.T) {
	ds, _, err := datasets.Load("movie", 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Config{Seed: 1}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	clone := m.Clone()
	predA, err := m.Predict()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the original; the clone must be unaffected.
	if _, err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	predB, err := clone.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for i := range predA {
		if !predA[i].Equal(predB[i]) {
			t.Fatalf("clone prediction diverged at item %d", i)
		}
	}
}

func TestAggregatorNames(t *testing.T) {
	cfg := Config{Seed: 1}
	if NewAggregator(cfg).Name() != "CPA" {
		t.Error("CPA name")
	}
	if NewOnlineAggregator(cfg).Name() != "CPA-online" {
		t.Error("online name")
	}
	if NewNoZAggregator(cfg).Name() != "No Z" {
		t.Error("No Z name")
	}
	if NewNoLAggregator(cfg).Name() != "No L" {
		t.Error("No L name")
	}
}

func TestRevealedTruthImprovesResult(t *testing.T) {
	base, _, err := datasets.Load("topic", 0.06, 41)
	if err != nil {
		t.Fatal(err)
	}
	scorePlain := fitScore(t, base)
	// Reveal a third of the truths as test questions.
	revealed := base.Clone()
	for i := 0; i < revealed.NumItems; i += 3 {
		if err := revealed.Reveal(i); err != nil {
			t.Fatal(err)
		}
	}
	scoreRevealed := fitScore(t, revealed)
	t.Logf("plain=%.3f revealed=%.3f", scorePlain, scoreRevealed)
	if scoreRevealed < scorePlain-0.02 {
		t.Errorf("revealed truth should not hurt: %.3f vs %.3f", scoreRevealed, scorePlain)
	}
}

func fitScore(t *testing.T, ds *answers.Dataset) float64 {
	t.Helper()
	agg := NewAggregator(Config{Seed: 3})
	pred, err := agg.Aggregate(ds)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := metrics.Evaluate(ds, pred)
	if err != nil {
		t.Fatal(err)
	}
	return pr.F1()
}

func TestGroundTruthOnlyAblation(t *testing.T) {
	// Literal Eq. 7 (no imputation) with no revealed truth leaves the
	// emissions at their priors: quality must collapse relative to the full
	// model — the ablation evidence for DESIGN.md D2.
	ds, _, err := datasets.Load("image", 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	full := fitScore(t, ds)
	lit := NewAggregator(Config{Seed: 3, GroundTruthOnly: true})
	pred, err := lit.Aggregate(ds)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := metrics.Evaluate(ds, pred)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full=%.3f literal=%.3f", full, pr.F1())
	if pr.F1() >= full-0.2 {
		t.Errorf("literal Eq. 7 (%.3f) should collapse relative to the grounded model (%.3f)", pr.F1(), full)
	}
}

func TestExhaustivePredictionConsistentWithGreedy(t *testing.T) {
	ds, _, err := datasets.Load("movie", 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	greedy := NewAggregator(Config{Seed: 1})
	gp, err := greedy.Aggregate(ds)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewAggregator(Config{Seed: 1, ExhaustivePrediction: true, ExhaustiveCap: 14})
	ep, err := exact.Aggregate(ds)
	if err != nil {
		t.Fatal(err)
	}
	gPR, _ := metrics.Evaluate(ds, gp)
	ePR, _ := metrics.Evaluate(ds, ep)
	t.Logf("greedy=%v exhaustive=%v", gPR, ePR)
	// The exhaustive argmax can only improve the model's internal score;
	// its F1 should track greedy within a small margin either way.
	if math.Abs(gPR.F1()-ePR.F1()) > 0.1 {
		t.Errorf("greedy %.3f vs exhaustive %.3f diverge", gPR.F1(), ePR.F1())
	}
}

func TestPredictItemMatchesBulk(t *testing.T) {
	ds, _, err := datasets.Load("movie", 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(Config{Seed: 2}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	bulk, err := m.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, ds.NumItems - 1} {
		single, err := m.PredictItem(i)
		if err != nil {
			t.Fatal(err)
		}
		if !single.Equal(bulk[i]) {
			t.Errorf("PredictItem(%d) = %v, bulk = %v", i, single, bulk[i])
		}
	}
	if _, err := m.PredictItem(-1); err == nil {
		t.Error("negative item should fail")
	}
}

package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/datasets"
	"cpa/internal/labelset"
	"cpa/internal/serve"
	"cpa/internal/simulate"
)

// shapeKind selects how a tenant's answer stream is ordered and mutated.
type shapeKind int

const (
	shapeShuffle   shapeKind = iota // uniform random arrival order
	shapeFlood                      // clean phase, then a spammer flood phase
	shapeSleeper                    // honest workers turn adversarial mid-stream
	shapeHot                        // hot items' answers arrive early and densely
	shapeStraggler                  // a worker cohort reconnects at the end
)

// ArrivalKind selects the traffic model that paces ingestion requests.
type ArrivalKind int

const (
	// ArrivalSteady spaces requests evenly at the scenario rate.
	ArrivalSteady ArrivalKind = iota
	// ArrivalPoisson draws exponential inter-request gaps (Poisson process).
	ArrivalPoisson
	// ArrivalBursty sends tight request bursts separated by idle gaps.
	ArrivalBursty
	// ArrivalTrickle sends tiny sub-batch chunks at a slow steady rate,
	// each once the last is fitted and served, forcing the fitter onto its
	// BatchWait partial-batch path.
	ArrivalTrickle
)

// String names the arrival model for reports.
func (a ArrivalKind) String() string {
	switch a {
	case ArrivalSteady:
		return "steady"
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBursty:
		return "bursty"
	case ArrivalTrickle:
		return "trickle"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(a))
	}
}

// Scenario is one named workload profile: a crowd model (who answers and
// how reliably, via internal/simulate), a stream shape (what order answers
// arrive in and how they mutate mid-stream), a traffic model (how arrivals
// are paced and chunked), and the serving topology (tenants, churn, queue
// limits, chaos kill points).
type Scenario struct {
	Name        string
	Description string

	// Profile names the Table 3 dataset shape driving the simulator.
	Profile string
	// Mix overrides the profile's worker population (nil = profile default).
	Mix *simulate.Mix
	// DependencyFraction injects label co-occurrence back into answers
	// (simulate.InjectDependency), producing partial-agreement-heavy sets.
	DependencyFraction float64

	shape shapeKind
	// SpamRatio is the injected spammer share for shapeFlood.
	SpamRatio float64
	// SleeperFraction is the share of honest workers that turn adversarial
	// at the phase boundary (shapeSleeper).
	SleeperFraction float64
	// SleeperRandomSpam selects the random-spammer archetype for turned
	// workers (a fresh uniform-random label set per answer) instead of the
	// default uniform-spammer one (a fixed set pasted onto every task).
	SleeperRandomSpam bool
	// HotFraction is the share of items treated as hot (shapeHot).
	HotFraction float64
	// StragglerFraction is the worker share whose answers arrive only in
	// the reconnect phase (shapeStraggler).
	StragglerFraction float64

	Arrival ArrivalKind
	// Rate is the notional arrival rate in answers/second for the traffic
	// model (virtual unless a RealClock is installed). 0 = 4000.
	Rate float64
	// Chunk is the number of answers per ingestion request. 0 = 64.
	Chunk int

	// Tenants is the number of concurrent jobs (0/1 = single tenant).
	Tenants int
	// Churn staggers tenant lifecycles: the last tenant is created only at
	// the final phase and the middle tenant is deleted after the middle
	// phase (requires Tenants >= 3 and 3 phases).
	Churn bool

	// ChaosKills is how many random kill -9 points to inject (in-process
	// targets only).
	ChaosKills int

	// Serving knobs (0 = serve defaults; QueueLimit small values exercise
	// the 429 backpressure path).
	QueueLimit int
	BatchSize  int
	BatchWait  time.Duration
	SaveEvery  int

	// Retention knobs for long-lived jobs. ReliabilityHalfLife enables
	// time-decayed worker reliability (in fit rounds); AnswerWindow bounds
	// the model's retained answer storage; TruncateJournal/TruncateMin turn
	// on checkpoint-anchored journal compaction in the server.
	ReliabilityHalfLife float64
	AnswerWindow        int
	TruncateJournal     bool
	TruncateMin         int64

	// Phases names the stream segments; per-phase P/R, drift and latency
	// are reported at each boundary after a quiesce.
	Phases []string

	// HotReads polls hot items' /items/{i} endpoints while streaming.
	HotReads bool
}

// scenarios is the library, in presentation order.
var scenarios = []Scenario{
	{
		Name:        "uniform",
		Description: "homogeneous honest crowd, steady arrivals — the control scenario",
		Profile:     "topic",
		Mix:         &simulate.Mix{Normal: 1},
		shape:       shapeShuffle,
		Arrival:     ArrivalSteady,
		Phases:      []string{"steady", "late"},
	},
	{
		Name:        "spammer-flood",
		Description: "hostile Appendix A population, then an injected spammer flood on top",
		Profile:     "topic",
		Mix:         mixPtr(simulate.AppendixAMix()),
		shape:       shapeFlood,
		SpamRatio:   0.35,
		Arrival:     ArrivalSteady,
		Phases:      []string{"clean", "flood"},
	},
	{
		Name:            "sleeper",
		Description:     "half the honest workers turn uniform-spammer adversarial mid-stream",
		Profile:         "topic",
		shape:           shapeSleeper,
		SleeperFraction: 0.5,
		Arrival:         ArrivalSteady,
		Phases:          []string{"honest", "adversarial"},
	},
	{
		Name:        "community-skew",
		Description: "bimodal reliability communities with skewed participation (image profile)",
		Profile:     "image",
		Mix:         &simulate.Mix{Reliable: 0.45, Sloppy: 0.10, RandomSpammer: 0.45},
		shape:       shapeShuffle,
		Arrival:     ArrivalSteady,
		Phases:      []string{"early", "late"},
	},
	{
		Name:        "hot-item",
		Description: "10% hot items answered early and densely, with hot-item read pressure",
		Profile:     "image",
		shape:       shapeHot,
		HotFraction: 0.10,
		Arrival:     ArrivalSteady,
		Phases:      []string{"ramp", "tail"},
		HotReads:    true,
	},
	{
		Name:        "bursty",
		Description: "Poisson bursts against a small ingestion queue — the 429 backpressure regime",
		Profile:     "topic",
		shape:       shapeShuffle,
		Arrival:     ArrivalBursty,
		QueueLimit:  80,
		Chunk:       48,
		Phases:      []string{"bursts", "drain"},
	},
	{
		Name:        "churn",
		Description: "multi-tenant lifecycle churn: staggered job create and delete mid-traffic",
		Profile:     "topic",
		shape:       shapeShuffle,
		Arrival:     ArrivalSteady,
		Tenants:     3,
		Churn:       true,
		Phases:      []string{"warmup", "churn", "steady"},
	},
	{
		Name:               "partial-heavy",
		Description:        "weak-correlation aspect profile with dependency-injected, overlap-heavy answer sets",
		Profile:            "aspect",
		DependencyFraction: 0.9,
		shape:              shapeShuffle,
		Arrival:            ArrivalSteady,
		Phases:             []string{"early", "late"},
	},
	{
		Name:              "straggler",
		Description:       "a quarter of the workers disconnect and replay their entire backlog at the end",
		Profile:           "topic",
		shape:             shapeStraggler,
		StragglerFraction: 0.25,
		Arrival:           ArrivalSteady,
		Phases:            []string{"mainline", "reconnect"},
	},
	{
		Name:        "chaos-kill",
		Description: "random kill -9 points mid-stream; recovery must be bit-for-bit",
		Profile:     "topic",
		shape:       shapeShuffle,
		Arrival:     ArrivalSteady,
		ChaosKills:  2,
		SaveEvery:   6,
		Phases:      []string{"pre", "post"},
	},
	{
		Name:        "trickle",
		Description: "sub-batch trickle arrivals exercising the BatchWait partial-batch path",
		Profile:     "topic",
		shape:       shapeShuffle,
		Arrival:     ArrivalTrickle,
		Chunk:       7,
		BatchWait:   4 * time.Millisecond,
		Phases:      []string{"trickle", "tail"},
	},
	{
		Name:                "sleeper-decay",
		Description:         "the sleeper turn with time-decayed reliability: old honest evidence must fade",
		Profile:             "topic",
		shape:               shapeSleeper,
		SleeperFraction:     0.25,
		SleeperRandomSpam:   true,
		Arrival:             ArrivalSteady,
		Rate:                0.002, // answers/second: the turn plays out over virtual weeks
		ReliabilityHalfLife: 4,
		Phases:              []string{"honest", "adversarial"},
	},
	{
		Name:            "retention-soak",
		Description:     "months-long virtual soak with journal truncation, answer windowing and mid-run kills",
		Profile:         "topic",
		shape:           shapeShuffle,
		Arrival:         ArrivalSteady,
		Rate:            0.002, // answers/second: a modest stream spans virtual months
		ChaosKills:      2,
		SaveEvery:       2,
		AnswerWindow:    256,
		TruncateJournal: true,
		TruncateMin:     4096,
		Phases:          []string{"month1", "month2", "month3"},
	},
}

func mixPtr(m simulate.Mix) *simulate.Mix { return &m }

// Scenarios returns the library in presentation order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// ScenarioNames returns the library's names in order.
func ScenarioNames() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.Name
	}
	return out
}

// GetScenario looks a scenario up by name.
func GetScenario(name string) (Scenario, error) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q (have %v)", name, ScenarioNames())
}

func (sc Scenario) chunk() int {
	if sc.Chunk > 0 {
		return sc.Chunk
	}
	return 64
}

func (sc Scenario) batchSize() int {
	if sc.BatchSize > 0 {
		return sc.BatchSize
	}
	return 64
}

func (sc Scenario) batchWait() time.Duration {
	if sc.BatchWait > 0 {
		return sc.BatchWait
	}
	return 10 * time.Millisecond
}

func (sc Scenario) saveEvery() int {
	if sc.SaveEvery > 0 {
		return sc.SaveEvery
	}
	return 8
}

func (sc Scenario) rate() float64 {
	if sc.Rate > 0 {
		return sc.Rate
	}
	return 4000
}

// ---------------------------------------------------------------------------
// Workload plan
// ---------------------------------------------------------------------------

// tenantPlan is one job's materialised workload: the evaluation dataset,
// the send-ordered answer stream, and the phase layout.
type tenantPlan struct {
	id      string
	profile string
	ds      *answers.Dataset // dims + evaluation truth
	stream  []answers.Answer // answers in send order (possibly mutated)
	// cuts[p] is the stream offset that must be sent by the end of phase p
	// (len == number of phases; 0 before createAt, len(stream) after the
	// tenant's last active phase).
	cuts []int
	// createAt is the phase at whose start the job is created; deleteAt is
	// the phase at whose end it is deleted (-1 = kept).
	createAt, deleteAt int
	// hotItems lists the read-pressure targets (shapeHot).
	hotItems []int
	// turned lists the sleeper workers flipped adversarial at the phase
	// boundary (shapeSleeper) — the ground truth the decay detection test
	// checks reliability estimates against.
	turned []int
	spec   serve.JobSpec
}

// plan is a fully materialised scenario run: tenants, phases, kill points.
type plan struct {
	sc      Scenario
	scale   float64
	seed    int64
	tenants []*tenantPlan
	// kills holds global acked-answer counts at which to hard-kill the
	// server (sorted ascending).
	kills []int
	total int
}

// buildPlan materialises a scenario deterministically under (scale, seed).
func buildPlan(sc Scenario, scale float64, seed int64) (*plan, error) {
	if len(sc.Phases) == 0 {
		return nil, fmt.Errorf("loadgen: scenario %q has no phases", sc.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	nT := sc.Tenants
	if nT < 1 {
		nT = 1
	}
	p := &plan{sc: sc, scale: scale, seed: seed}
	for ti := 0; ti < nT; ti++ {
		tseed := rng.Int63()
		tp, err := buildTenant(sc, scale, tseed, ti, nT)
		if err != nil {
			return nil, fmt.Errorf("loadgen: tenant %d: %w", ti, err)
		}
		p.tenants = append(p.tenants, tp)
		p.total += len(tp.stream)
	}
	if sc.ChaosKills > 0 {
		seen := map[int]bool{}
		for len(p.kills) < sc.ChaosKills {
			at := int(float64(p.total) * (0.15 + 0.70*rng.Float64()))
			if at > 0 && !seen[at] {
				seen[at] = true
				p.kills = append(p.kills, at)
			}
		}
		sort.Ints(p.kills)
	}
	return p, nil
}

// buildTenant generates one tenant's dataset and shapes its stream.
func buildTenant(sc Scenario, scale float64, tseed int64, ti, nT int) (*tenantPlan, error) {
	prof, err := datasets.Get(sc.Profile)
	if err != nil {
		return nil, err
	}
	cfg, err := prof.Config(scale, tseed)
	if err != nil {
		return nil, err
	}
	if sc.Mix != nil {
		cfg.Mix = *sc.Mix
	}
	ds, meta, err := simulate.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(tseed + 1))
	if sc.DependencyFraction > 0 {
		if ds, err = simulate.InjectDependency(ds, sc.DependencyFraction, rng); err != nil {
			return nil, err
		}
	}

	tp := &tenantPlan{
		id:       fmt.Sprintf("%s-t%d", sc.Name, ti),
		profile:  sc.Profile,
		createAt: 0,
		deleteAt: -1,
	}
	nPhases := len(sc.Phases)
	if sc.Churn {
		// t0 lives the whole run; the middle tenant dies after the middle
		// phase; the last tenant is born at the final phase.
		switch {
		case ti == nT-1:
			tp.createAt = nPhases - 1
		case ti == nT/2:
			tp.deleteAt = nPhases - 2
		}
	}

	switch sc.shape {
	case shapeFlood:
		flooded, err := simulate.InjectSpammers(ds, sc.SpamRatio, rng)
		if err != nil {
			return nil, err
		}
		base := len(ds.Answers())
		ds = flooded
		all := ds.Answers()
		tp.stream = append(shuffled(all[:base], rng), shuffled(all[base:], rng)...)
		tp.cuts = []int{base, len(tp.stream)}
	case shapeSleeper:
		tp.stream = shuffled(ds.Answers(), rng)
		tp.cuts = evenCuts(len(tp.stream), tp.createAt, tp.deleteAt, nPhases)
		tp.turned = flipSleepers(tp.stream, tp.cuts[0], meta, sc.SleeperFraction, rng, ds.NumLabels, sc.SleeperRandomSpam)
	case shapeHot:
		tp.stream, tp.hotItems = hotOrder(ds, sc.HotFraction, rng)
		tp.cuts = evenCuts(len(tp.stream), tp.createAt, tp.deleteAt, nPhases)
	case shapeStraggler:
		tp.stream, tp.cuts = stragglerOrder(ds, sc.StragglerFraction, rng)
	default:
		tp.stream = shuffled(ds.Answers(), rng)
		tp.cuts = evenCuts(len(tp.stream), tp.createAt, tp.deleteAt, nPhases)
	}
	if len(tp.cuts) != nPhases {
		return nil, fmt.Errorf("shape produced %d cuts for %d phases", len(tp.cuts), nPhases)
	}

	tp.ds = ds
	tp.spec = serve.JobSpec{
		ID: tp.id, Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{
			Seed: tseed, BatchSize: sc.batchSize(), Parallelism: 2,
			ReliabilityHalfLife: sc.ReliabilityHalfLife,
			AnswerWindow:        sc.AnswerWindow,
		},
	}
	return tp, nil
}

// shuffled returns a seed-determined permutation of the answers.
func shuffled(all []answers.Answer, rng *rand.Rand) []answers.Answer {
	out := make([]answers.Answer, len(all))
	for i, pi := range rng.Perm(len(all)) {
		out[i] = all[pi]
	}
	return out
}

// evenCuts splits n answers evenly across the tenant's active phase span
// [createAt, deleteAt] (deleteAt -1 = last phase), padding inactive phases
// with 0 / n so every cuts slice spans all phases.
func evenCuts(n, createAt, deleteAt, nPhases int) []int {
	last := deleteAt
	if last < 0 {
		last = nPhases - 1
	}
	active := last - createAt + 1
	cuts := make([]int, nPhases)
	for p := 0; p < nPhases; p++ {
		switch {
		case p < createAt:
			cuts[p] = 0
		case p > last:
			cuts[p] = n
		default:
			cuts[p] = n * (p - createAt + 1) / active
		}
	}
	return cuts
}

// flipSleepers replaces the post-boundary answers of a fraction of honest
// workers with spam — the sleeper-cell crowd of the sleeper scenarios. By
// default each turned worker pastes a fixed 1–2 label set onto every task
// (the uniform-spammer archetype, §2.1's u3); with randomSpam they draw a
// fresh uniform-random set per answer (the random-spammer archetype).
// Returns the sorted ids of the turned workers.
func flipSleepers(stream []answers.Answer, boundary int, meta *simulate.Metadata, fraction float64, rng *rand.Rand, numLabels int, randomSpam bool) []int {
	var honest []int
	for u, wt := range meta.WorkerTypes {
		if !wt.IsSpammer() {
			honest = append(honest, u)
		}
	}
	n := int(math.Round(fraction * float64(len(honest))))
	spamSet := make(map[int][]int, n)
	turned := make([]int, 0, n)
	for _, k := range rng.Perm(len(honest))[:n] {
		u := honest[k]
		spam := []int{rng.Intn(numLabels)}
		if rng.Float64() < 0.5 && numLabels > 1 {
			spam = append(spam, rng.Intn(numLabels))
		}
		spamSet[u] = spam
		turned = append(turned, u)
	}
	for i := boundary; i < len(stream); i++ {
		spam, ok := spamSet[stream[i].Worker]
		if !ok {
			continue
		}
		if randomSpam {
			spam = []int{rng.Intn(numLabels)}
			if rng.Float64() < 0.5 && numLabels > 1 {
				spam = append(spam, rng.Intn(numLabels))
			}
		}
		stream[i].Labels = labelset.FromSlice(spam)
	}
	sort.Ints(turned)
	return turned
}

// hotOrder biases the arrival order so hot items' answers land early and
// densely (Efraimidis–Spirakis weighted ordering), and returns the hot item
// ids for read pressure.
func hotOrder(ds *answers.Dataset, hotFraction float64, rng *rand.Rand) ([]answers.Answer, []int) {
	nHot := int(math.Max(1, math.Round(hotFraction*float64(ds.NumItems))))
	hot := make(map[int]bool, nHot)
	hotItems := make([]int, 0, nHot)
	for _, i := range rng.Perm(ds.NumItems)[:nHot] {
		hot[i] = true
		hotItems = append(hotItems, i)
	}
	sort.Ints(hotItems)
	all := ds.Answers()
	type keyed struct {
		idx int
		key float64
	}
	keys := make([]keyed, len(all))
	for idx, a := range all {
		w := 1.0
		if hot[a.Item] {
			w = 8.0
		}
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		keys[idx] = keyed{idx: idx, key: math.Pow(u, 1/w)}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key > keys[b].key })
	out := make([]answers.Answer, len(all))
	for i, k := range keys {
		out[i] = all[k.idx]
	}
	return out, hotItems
}

// stragglerOrder withholds a worker cohort's answers from the mainline and
// delivers them as one reconnect burst at the end.
func stragglerOrder(ds *answers.Dataset, fraction float64, rng *rand.Rand) ([]answers.Answer, []int) {
	n := int(math.Round(fraction * float64(ds.NumWorkers)))
	straggler := make(map[int]bool, n)
	for _, u := range rng.Perm(ds.NumWorkers)[:n] {
		straggler[u] = true
	}
	var mainline, tail []answers.Answer
	for _, a := range ds.Answers() {
		if straggler[a.Worker] {
			tail = append(tail, a)
		} else {
			mainline = append(mainline, a)
		}
	}
	mainline = shuffled(mainline, rng)
	tail = shuffled(tail, rng)
	stream := append(mainline, tail...)
	return stream, []int{len(mainline), len(stream)}
}

package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cpa/internal/answers"
	"cpa/internal/datasets"
	"cpa/internal/simulate"
)

// The workloads. Each exists to stress a different part of the ingest →
// fit → publish → read path; why says which, and BENCHMARK.json repeats it
// for the ones it lists.
//
//   - highrate: one large job at a high open-loop rate, so almost every
//     round is a full 256-answer batch fitted on two shards and most
//     publishes are incremental: fit, parallel-shard and incremental-publish
//     changes show in its freshness.
//   - restart: the only workload that runs recovery (checkpoint load,
//     journal scan, suffix replay, full publish), then serves open-loop
//     traffic on the recovered job.
//   - steady: the fitter is usually caught up, so it publishes full
//     O(stream) rounds; ack, freshness and read latency of a normally loaded
//     job show here.
//   - tenants: eight BatchWait-timed jobs with full publishes and one-record
//     group-commit cohorts; per-job overhead and cross-job CPU contention
//     dominate, and parallel shards and incremental publish do almost
//     nothing.
//   - saturate: two closed-loop posters keep the fitter's queue full, so its
//     throughput is the service's capacity. Capacity is pure CPU time, which
//     on a shared host drifts by more than any bound between two sets of
//     runs, so BENCHMARK.json does not list it; compare it in alternating
//     pairs (README.md).
//
// Every workload BENCHMARK.json lists is open loop: its throughput is set by
// the schedule, and its latencies by the schedule, BatchWait and the
// service's CPU time together.
const (
	highrate = "highrate"
	restart  = "restart"
	steady   = "steady"
	tenants  = "tenants"
	saturate = "saturate"
)

var workloadNames = []string{highrate, restart, steady, tenants, saturate}

// crowd is a Table 3 profile resized to a workload's shape.
type crowd struct {
	profile string
	scale   float64
	// Overrides of the scaled profile; 0 keeps the profile's value.
	items, workers, perItem int
}

// spec sizes one workload.
type spec struct {
	name        string
	crowd       crowd
	jobs        int
	parallelism int
	body        int // answers per POST body

	// closed: two closed-loop posters that retry a 429 after retryDelay.
	// Otherwise each load goroutine follows an open-loop schedule.
	closed bool

	// Open loop: answers/s per job, GET/s of the one reader (0: none), and the
	// warm-up before the measured window.
	rate     float64
	readRate float64
	warmup   time.Duration

	// Restart: answers journaled before the first crash (in 64-answer
	// bodies, untimed), and the reopen cycles; each cycle serves an equal
	// share of the window.
	build, cycles int
}

// retryDelay is how long a closed-loop poster sleeps after a 429.
const retryDelay = 5 * time.Millisecond

// setupReps is how many times a run sets the service up, each time in a new
// data directory; setup_s is the median. A restart's reopens are measured
// operations, not set-ups: the traced pass reports them as
// recover.reopen_ms.
const setupReps = 15

func specFor(name string, short bool) (spec, error) {
	image := crowd{profile: "image", scale: 1, items: 2000, workers: 2080, perItem: 55}
	topic := crowd{profile: "topic", scale: 1, items: 500, workers: 468, perItem: 80}
	var s spec
	switch name {
	case highrate:
		s = spec{name: name, crowd: image, jobs: 1, parallelism: 2, body: 32, rate: 2000, warmup: 5 * time.Second}
	case restart:
		topic.perItem = 120
		s = spec{name: name, crowd: topic, jobs: 1, parallelism: 1, body: 16, rate: 1000,
			build: 8000, cycles: 5}
	case steady:
		s = spec{name: name, crowd: topic, jobs: 1, parallelism: 1, body: 16, rate: 1000, readRate: 100,
			warmup: 5 * time.Second}
	case tenants:
		s = spec{name: name, crowd: crowd{profile: "topic", scale: 0.15},
			jobs: 8, parallelism: 1, body: 8, rate: 60, warmup: 5 * time.Second}
	case saturate:
		s = spec{name: name, crowd: image, jobs: 1, parallelism: 2, body: 64, closed: true}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if short {
		s.crowd = crowd{profile: s.crowd.profile, scale: 0.1}
		s.build, s.cycles = min(s.build, 600), min(s.cycles, 2)
		s.warmup = min(s.warmup, 200*time.Millisecond)
		s.rate = min(s.rate, 300)
		s.jobs = min(s.jobs, 2)
	}
	return s, nil
}

// generate builds one job's crowd and shuffles it into its arrival order.
// Every (item, worker) pair appears at most once.
func (c crowd) generate(seed int64) (*answers.Dataset, error) {
	p, err := datasets.Get(c.profile)
	if err != nil {
		return nil, err
	}
	cfg, err := p.Config(c.scale, seed)
	if err != nil {
		return nil, err
	}
	if c.items > 0 {
		cfg.Items = c.items
	}
	if c.workers > 0 {
		cfg.Workers = c.workers
	}
	if c.perItem > 0 {
		cfg.AnswersPerItem = c.perItem
	}
	ds, _, err := simulate.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return ds.Shuffled(rand.New(rand.NewSource(seed))), nil
}

// uniquePairs reports the first (item, worker) pair a stream repeats.
func uniquePairs(stream []answers.Answer, workers int) error {
	seen := make(map[int]bool, len(stream))
	for i, a := range stream {
		k := a.Item*workers + a.Worker
		if seen[k] {
			return fmt.Errorf("answer %d repeats item %d worker %d", i, a.Item, a.Worker)
		}
		seen[k] = true
	}
	return nil
}

// encodeBody renders answers as an NDJSON ingest body.
func encodeBody(batch []answers.Answer) ([]byte, error) {
	var b []byte
	for _, a := range batch {
		line, err := answers.MarshalAnswerJSON(a)
		if err != nil {
			return nil, err
		}
		b = append(append(b, line...), '\n')
	}
	return b, nil
}

// uniformSchedule returns n due offsets in [0, total), ascending: the arrival
// times of a Poisson process conditioned on n arrivals, so every seed offers
// exactly the same load and only its timing varies.
func uniformSchedule(rng *rand.Rand, n int, total time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(total)))
	}
	slices.Sort(at)
	return at
}

// inputs is the input-property block of one workload: the crowd properties
// the serving cost depends on, so a claim that depends on one of them can
// cite each workload's value.
type inputs struct {
	Jobs           int     `json:"jobs"`
	Items          int     `json:"items"`
	Workers        int     `json:"workers"`
	Labels         int     `json:"labels"`
	Answers        int     `json:"answers"`
	AnswersPerItem float64 `json:"answers_per_item"`
	// DistinctLabelSetShare is distinct answer label sets ÷ answers, mean over
	// jobs: the lower it is, the more per-set caching pays.
	DistinctLabelSetShare float64 `json:"distinct_label_set_share"`
	MeanBodyBytes         float64 `json:"mean_body_bytes"`
	// Posted counts the answers the run actually sent.
	Posted int `json:"answers_posted"`
}

func describeInputs(crowds []*answers.Dataset) inputs {
	in := inputs{Jobs: len(crowds)}
	for _, ds := range crowds {
		st := ds.ComputeStats()
		in.Items, in.Workers, in.Labels = st.Items, st.Workers, st.Labels
		in.Answers += st.Answers
		in.AnswersPerItem += st.MeanAnswersPerItem / float64(len(crowds))
		in.DistinctLabelSetShare += ratio(float64(st.DistinctLabelSets), float64(st.Answers)) / float64(len(crowds))
	}
	return in
}

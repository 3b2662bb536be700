package core

import (
	"math/rand"
	"syscall"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/datasets"
	"cpa/internal/simulate"
)

// publishShape is a serve-shaped stream for timing the full publication on
// a fixed schedule: the crowd a benchmark workload serves, fitted in rounds
// of the size its fitter takes, up to the stream position the publication
// runs at.
type publishShape struct {
	name                     string
	profile                  string
	items, workers, perItem  int
	seed                     int64
	round, parallelism, upTo int
}

// The highrate shape is the image crowd at 2000 answers/s on two shards;
// the steady shape the topic crowd at 1000 answers/s on one.
var publishShapes = []publishShape{
	{name: "highrate", profile: "image", items: 2000, workers: 2080, perItem: 55, seed: 3, round: 110, parallelism: 2, upTo: 33000},
	{name: "steady", profile: "topic", items: 500, workers: 468, perItem: 80, seed: 3, round: 37, parallelism: 1, upTo: 20000},
}

// fit builds the shape's crowd and fits its first upTo answers.
func (s publishShape) fit(b *testing.B) *Model {
	b.Helper()
	p, err := datasets.Get(s.profile)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := p.Config(1, s.seed)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Items, cfg.Workers, cfg.AnswersPerItem = s.items, s.workers, s.perItem
	var ds *answers.Dataset
	if ds, _, err = simulate.Generate(cfg); err != nil {
		b.Fatal(err)
	}
	all := ds.Shuffled(rand.New(rand.NewSource(s.seed))).Answers()[:s.upTo]
	m, err := NewModel(Config{Seed: s.seed, Parallelism: s.parallelism}, s.items, s.workers, ds.NumLabels)
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(all); lo += s.round {
		if err := m.PartialFit(all[lo:min(lo+s.round, len(all))]); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// cpuTime returns the CPU time the process has used, user and system:
// a stage's cost on every core it runs on, which other tenants of the host
// move less than they move its wall time.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkPublishFullStages measures one full publication of a fixed
// posterior, stage by stage, on a finalize clone run at every core like
// Publisher.publishFull: the local pass (expectations, κ and ϕ), the three
// reliability passes, the three imputation passes and the consensus view
// (§3.4 weights and instantiation). Each stage is reported as the CPU time
// it took, in ms per publication, summed over the cores it ran on.
//
//	go test -run '^$' -bench PublishFullStages -benchtime 20x ./internal/core
func BenchmarkPublishFullStages(b *testing.B) {
	for _, s := range publishShapes {
		b.Run(s.name, func(b *testing.B) {
			src := s.fit(b)
			var local, rel, imp, view time.Duration
			c := newPublishClone(src)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				c.syncPublishState(src)
				c.cfg.Parallelism = publishParallelism()
				t0 := cpuTime(b)
				c.temp = 1
				c.refreshExpectations()
				c.updateLocal()
				t1 := cpuTime(b)
				local += t1 - t0
				for pass := 0; pass < 3; pass++ {
					t2 := cpuTime(b)
					c.updateReliability()
					t3 := cpuTime(b)
					c.imputeTruth(nil)
					t4 := cpuTime(b)
					rel += t3 - t2
					imp += t4 - t3
				}
				c.releaseScratch()
				t5 := cpuTime(b)
				if _, err := c.ConsensusView(); err != nil {
					b.Fatal(err)
				}
				view += cpuTime(b) - t5
			}
			per := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(per(local), "local-cpu-ms")
			b.ReportMetric(per(rel), "reliability-cpu-ms")
			b.ReportMetric(per(imp), "impute-cpu-ms")
			b.ReportMetric(per(view), "view-cpu-ms")
			b.ReportMetric(per(local+rel+imp+view), "publish-cpu-ms")
		})
	}
}

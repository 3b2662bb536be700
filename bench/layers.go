package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
	"cpa/internal/serve"
)

// The per-layer metrics of a traced pass. Every layer is measured from
// outside, by timing calls into its public functions or by differencing the
// counters serve publishes; nothing here changes how the service runs.

// saveEvery mirrors serve's default checkpoint cadence (Config.SaveEvery),
// which the benchmark leaves at its default.
const saveEvery = 16

// round is one fit round replayed from a journal: its recorded size and
// publish mode and the time each stage took offline.
type round struct {
	job, index     int
	n              int
	full           bool
	fit, pub, save time.Duration
	saved          bool
	start          time.Duration // offset from the replay's start
}

// replayRounds replays a job's journal through core.NewModel, PartialFit and
// a Publisher driven by the journaled publish modes, checkpointing every
// saveEvery rounds as the fitter does, and times each call. It is a
// stopwatch, not a referee: loadgen.CheckReplay judges correctness.
func replayRounds(path string, spec serve.JobSpec, job int, scratch string) ([]round, int64, error) {
	var entries []serve.JournalEntry
	if err := serve.ReadJournal(path, func(e serve.JournalEntry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		return nil, 0, err
	}
	model, err := core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels)
	if err != nil {
		return nil, 0, err
	}
	pub := core.NewPublisher(model)
	var (
		rounds  []round
		pending []answers.Answer
		size    int64
		since   int
	)
	t0 := time.Now()
	for _, e := range entries {
		switch {
		case e.Answer != nil:
			pending = append(pending, *e.Answer)
		case e.Restart:
			// A recovery re-anchor: the recovered fitter restarts its
			// checkpoint count and republishes in full.
			since = 0
			if model.Fitted() {
				if _, _, err := pub.Publish(true); err != nil {
					return nil, 0, err
				}
			}
		case e.FitN > 0:
			if e.FitN > len(pending) {
				return nil, 0, fmt.Errorf("fit marker n=%d with %d pending answers", e.FitN, len(pending))
			}
			r := round{job: job, index: len(rounds) + 1, n: e.FitN, full: e.FitFull, start: time.Since(t0)}
			a := time.Now()
			if err := model.PartialFit(pending[:e.FitN]); err != nil {
				return nil, 0, err
			}
			b := time.Now()
			if _, _, err := pub.Publish(e.FitFull); err != nil {
				return nil, 0, err
			}
			c := time.Now()
			r.fit, r.pub = b.Sub(a), c.Sub(b)
			pending = pending[e.FitN:]
			if since++; since >= saveEvery {
				since = 0
				if size, err = saveModel(model, filepath.Join(scratch, "replay.gob")); err != nil {
					return nil, 0, err
				}
				r.save, r.saved = time.Since(c), true
			}
			rounds = append(rounds, r)
		}
	}
	return rounds, size, nil
}

func saveModel(m *core.Model, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// recovery is one recovery of a crashed data directory split into the
// stages registry recovery runs, each timed offline on the same files, plus
// the time a real reopen of that directory took until it served a GET.
type recovery struct {
	load, scan, replay, publish time.Duration
	rounds                      int
	journalBytes                int64
	reopen                      time.Duration
}

func (r recovery) stages() time.Duration { return r.load + r.scan + r.replay + r.publish }

// stopwatchRecovery times, for every job of a crashed data directory, the
// stages of registry recovery: checkpoint load (core.Load), journal scan
// (serve.ReadJournal), the replay of the fit rounds past the checkpoint
// (PartialFit), and the full publish of the recovered model.
func stopwatchRecovery(dataDir string, ids []string) (recovery, error) {
	var rec recovery
	for _, id := range ids {
		journal := serve.JournalPath(dataDir, id)
		jobDir := filepath.Dir(journal)
		raw, err := os.ReadFile(filepath.Join(jobDir, serve.SpecFileName))
		if err != nil {
			return rec, err
		}
		var spec serve.JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return rec, err
		}
		t0 := time.Now()
		model, err := loadCheckpoint(filepath.Join(jobDir, serve.CheckpointFileName), spec)
		if err != nil {
			return rec, err
		}
		t1 := time.Now()
		var entries []serve.JournalEntry
		if err := serve.ReadJournal(journal, func(e serve.JournalEntry) error {
			entries = append(entries, e)
			return nil
		}); err != nil {
			return rec, err
		}
		t2 := time.Now()
		skipAns, skipFit := model.TotalIngested(), model.BatchRounds()
		var pending []answers.Answer
		for _, e := range entries {
			switch {
			case e.Answer != nil && skipAns > 0:
				skipAns--
			case e.Answer != nil:
				pending = append(pending, *e.Answer)
			case e.FitN > 0 && skipFit > 0:
				skipFit--
			case e.FitN > 0:
				if err := model.PartialFit(pending[:e.FitN]); err != nil {
					return rec, err
				}
				pending = pending[e.FitN:]
				rec.rounds++
			}
		}
		t3 := time.Now()
		if model.Fitted() {
			if _, _, err := core.NewPublisher(model).Publish(true); err != nil {
				return rec, err
			}
		}
		t4 := time.Now()
		rec.load += t1.Sub(t0)
		rec.scan += t2.Sub(t1)
		rec.replay += t3.Sub(t2)
		rec.publish += t4.Sub(t3)
		if st, err := os.Stat(journal); err == nil {
			rec.journalBytes += st.Size()
		}
	}
	return rec, nil
}

func loadCheckpoint(path string, spec serve.JobSpec) (*core.Model, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// timeRecovery is the recovery measurement of a workload that does not
// restart: the crashed directory the pass left is recovered by the
// stopwatch and then reopened for real, up to a served GET of every job.
func (p *pass) timeRecovery() error {
	rec, err := stopwatchRecovery(p.dataDir, p.jobIDs)
	if err != nil {
		return err
	}
	t0 := time.Now()
	tg, err := openTarget(p.dataDir)
	if err != nil {
		return err
	}
	defer tg.crash()
	c := newClient(tg.base)
	defer c.close()
	for _, id := range p.jobIDs {
		if _, err := c.consensus(id); err != nil {
			return err
		}
	}
	rec.reopen = time.Since(t0)
	p.recoveries = append(p.recoveries, rec)
	return nil
}

// codecCost times serve.DecodeNDJSON and serve.EncodeAnswerLines over the
// pass's own POST bodies, repeating the bodies until each side has run for
// at least minCodecTime, and returns µs per record.
func codecCost(reqs []*req) (decodeUs, encodeUs float64, err error) {
	const minCodecTime = 100 * time.Millisecond
	var bodies [][]byte
	var batches [][]answers.Answer
	records := 0
	for _, q := range reqs {
		if q.ans != nil {
			bodies = append(bodies, q.body)
			batches = append(batches, q.ans)
			records += len(q.ans)
		}
	}
	if records == 0 {
		return 0, 0, nil
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < minCodecTime {
		for _, b := range bodies {
			var arena labelset.Arena
			if err := serve.DecodeNDJSON(b, &arena, func(answers.Answer) error { return nil }); err != nil {
				return 0, 0, err
			}
		}
		n++
	}
	decodeUs = float64(time.Since(t0).Microseconds()) / float64(n*records)
	var buf []byte
	n = 0
	t0 = time.Now()
	for time.Since(t0) < minCodecTime {
		for _, b := range batches {
			buf = serve.EncodeAnswerLines(buf[:0], b)
		}
		n++
	}
	encodeUs = float64(time.Since(t0).Microseconds()) / float64(n*records)
	return decodeUs, encodeUs, nil
}

// totals are the window sums of the counters serve and the runtime publish.
type totals struct {
	dur                                 float64 // seconds
	cohorts, cohortRecs, commits        int64
	commitNs, commitMax, journalBytes   int64
	ingested, fitRounds, fitted         int64
	pubs, pubNs, pubMax                 int64
	gcs, pauseNs, pauseMax, allocs, cpu int64
	// rounds holds the fit rounds published inside a window, per job.
	rounds map[[2]int]bool
}

func (p *pass) windowTotals() totals {
	t := totals{rounds: map[[2]int]bool{}}
	for _, w := range p.windows {
		t.dur += w.end.at.Sub(w.begin.at).Seconds()
		for k := range w.end.stats {
			b, e := w.begin.stats[k], w.end.stats[k]
			t.cohorts += e.Ingest.Cohorts - b.Ingest.Cohorts
			t.cohortRecs += e.Ingest.CohortRecords - b.Ingest.CohortRecords
			t.commits += e.Ingest.Appends.Count - b.Ingest.Appends.Count
			t.commitNs += e.Ingest.Appends.SumNs - b.Ingest.Appends.SumNs
			t.commitMax = max(t.commitMax, e.Ingest.Appends.MaxNs)
			t.journalBytes += e.JournalBytes - b.JournalBytes
			t.ingested += e.IngestedAnswers - b.IngestedAnswers
			t.fitRounds += e.FitRounds - b.FitRounds
			t.fitted += e.FittedAnswers - b.FittedAnswers
			t.pubs += e.Publish.Count - b.Publish.Count
			t.pubNs += e.Publish.SumNs - b.Publish.SumNs
			t.pubMax = max(t.pubMax, e.Publish.MaxNs)
			for r := b.FitRounds + 1; r <= e.FitRounds; r++ {
				t.rounds[[2]int{k, int(r)}] = true
			}
		}
		b, e := &w.begin.mem, &w.end.mem
		t.gcs += int64(e.NumGC - b.NumGC)
		t.pauseNs += int64(e.PauseTotalNs - b.PauseTotalNs)
		// PauseNs is a ring of the last 256 pauses.
		for c := max(b.NumGC+1, e.NumGC-min(e.NumGC, 255)); c <= e.NumGC; c++ {
			t.pauseMax = max(t.pauseMax, int64(e.PauseNs[(c+255)%256]))
		}
		t.allocs += int64(e.TotalAlloc - b.TotalAlloc)
		t.cpu += int64(w.end.cpu - w.begin.cpu)
	}
	return t
}

// inWindow reports whether t falls in one of the measured windows.
func (p *pass) inWindow(t time.Time) bool {
	for _, w := range p.windows {
		if !t.Before(w.begin.at) && t.Before(w.end.at) {
			return true
		}
	}
	return false
}

// layerMetrics computes the per-layer metrics of a traced pass.
func (p *pass) layerMetrics() (metricSet, error) {
	m := metricSet{}
	dec, enc, err := codecCost(p.reqs)
	if err != nil {
		return nil, err
	}
	m.set("http.decode_us_per_record", dec, "us", 0)
	m.set("http.encode_us_per_record", enc, "us", 0)

	t := p.windowTotals()
	m.set("journal.cohorts_per_s", ratio(float64(t.cohorts), t.dur), "1/s", int(t.cohorts))
	m.set("journal.records_per_cohort", ratio(float64(t.cohortRecs), float64(t.cohorts)), "count", int(t.cohorts))
	m.set("journal.commit_ms_mean", ratio(float64(t.commitNs), float64(t.commits))/1e6, "ms", int(t.commits))
	m.set("journal.commit_ms_max", float64(t.commitMax)/1e6, "ms", 0)
	m.set("journal.bytes_per_record", ratio(float64(t.journalBytes), float64(t.ingested)), "B", int(t.ingested))

	p.queueMetrics(m, t)

	rounds, err := p.replay(m, t)
	if err != nil {
		return nil, err
	}
	m.set("core.publish_ms_mean", ratio(float64(t.pubNs), float64(t.pubs))/1e6, "ms", int(t.pubs))
	m.set("core.publish_ms_max", float64(t.pubMax)/1e6, "ms", 0)

	pubs := 0
	for _, o := range p.obs {
		for _, x := range o {
			if p.inWindow(x.published) {
				pubs++
			}
		}
	}
	m.set("snapshot.encode_ms", median(p.encodeMs), "ms", len(p.encodeMs))
	m.set("snapshot.body_kb", p.bodyKB, "KB", 0)
	m.set("snapshot.publications_per_s", ratio(float64(pubs), t.dur), "1/s", pubs)

	p.recoveryMetrics(m)

	procs := float64(runtime.GOMAXPROCS(0))
	m.set("runtime.gc_cycles_per_s", ratio(float64(t.gcs), t.dur), "1/s", int(t.gcs))
	m.set("runtime.gc_pause_ms_total", float64(t.pauseNs)/1e6, "ms", int(t.gcs))
	m.set("runtime.gc_pause_ms_max", float64(t.pauseMax)/1e6, "ms", int(t.gcs))
	m.set("runtime.alloc_mb_per_s", ratio(float64(t.allocs)/1e6, t.dur), "MB/s", 0)
	m.set("runtime.cpu_util", ratio(float64(t.cpu)/1e9, t.dur*procs), "ratio", 0)

	var lag []float64
	for _, q := range p.reqs {
		if q.measured && !p.spec.closed {
			lag = append(lag, ms(q.sent.Sub(q.due)))
		}
	}
	lagP99, _ := quantile(sortedCopy(lag), 0.99)
	m.set("harness.gen_lag_ms_p99", lagP99, "ms", len(lag))
	m.set("harness.poll_ms", ratio(ms(p.pollDur), float64(p.polls)), "ms", p.polls)
	m.set("harness.missed_publications", float64(p.missed), "count", 0)
	attempted, failed := p.counts()
	m.set("error_frac", ratio(float64(failed), float64(attempted)), "ratio", int(attempted))

	p.spans = append(p.spans, p.requestSpans()...)
	p.spans = append(p.spans, roundSpans(rounds)...)
	p.spans = append(p.spans, recoverySpans(p.recoveries)...)
	return m, nil
}

// queueMetrics sets the queue layer's metrics from the sampled depths and
// the clients' 429 counts.
func (p *pass) queueMetrics(m metricSet, t totals) {
	var depths []float64
	for _, d := range p.depths {
		if p.inWindow(d.at) {
			depths = append(depths, float64(d.depth))
		}
	}
	depthMean := ratio(sum(depths), float64(len(depths)))
	var posts, rejected float64
	var retried []float64
	for _, q := range p.reqs {
		if q.measured && q.ans != nil {
			posts += float64(1 + q.rejected)
			rejected += float64(q.rejected)
			if q.rejected > 0 && q.ok() {
				retried = append(retried, ms(q.done.Sub(q.sent)))
			}
		}
	}
	m.set("queue.depth_mean", depthMean, "count", len(depths))
	m.set("queue.depth_max", maxOf(depths), "count", len(depths))
	m.set("queue.rejected_frac", ratio(rejected, posts), "ratio", int(posts))
	m.set("queue.retry_ms_p50", median(retried), "ms", len(retried))
	// Little's law: mean wait = mean depth ÷ admission rate.
	m.set("queue.wait_ms_mean", ratio(depthMean, ratio(float64(t.ingested), t.dur))*1e3, "ms", len(depths))
}

// replay replays every job's journal with the stopwatch and sets the fitter,
// PartialFit, publish and checkpoint metrics from its rounds.
func (p *pass) replay(m metricSet, t totals) ([]round, error) {
	var rounds []round
	var ckptBytes int64
	for k, id := range p.jobIDs {
		r, size, err := replayRounds(serve.JournalPath(p.dataDir, id), p.jobs[k].Spec(), k, p.root)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", id, err)
		}
		rounds = append(rounds, r...)
		ckptBytes = max(ckptBytes, size)
	}
	batch := p.jobs[0].Spec().Model.BatchSize
	var fits, incPubs, fullPubs, saves []float64
	var busy time.Duration
	fitTotal, answered, inWindow, partial, full := 0.0, 0, 0, 0, 0
	for _, r := range rounds {
		fits = append(fits, ms(r.fit))
		fitTotal += ms(r.fit)
		answered += r.n
		if r.full {
			fullPubs = append(fullPubs, ms(r.pub))
		} else {
			incPubs = append(incPubs, ms(r.pub))
		}
		if r.saved {
			saves = append(saves, ms(r.save))
		}
		if t.rounds[[2]int{r.job, r.index}] {
			inWindow++
			busy += r.fit + r.pub + r.save
			if r.n < batch {
				partial++
			}
			if r.full {
				full++
			}
		}
	}
	m.set("fitter.rounds_per_s", ratio(float64(t.fitRounds), t.dur), "1/s", int(t.fitRounds))
	m.set("fitter.answers_per_round", ratio(float64(t.fitted), float64(t.fitRounds)), "count", int(t.fitRounds))
	m.set("fitter.partial_round_frac", ratio(float64(partial), float64(inWindow)), "ratio", inWindow)
	m.set("fitter.full_publish_frac", ratio(float64(full), float64(inWindow)), "ratio", inWindow)
	// The replayed stage sum of the window's rounds per job and second of
	// window: near 1 when the fitter is the bottleneck.
	m.set("fitter.busy_frac", ratio(busy.Seconds(), t.dur*float64(len(p.jobs))), "ratio", inWindow)

	fits = sortedCopy(fits)
	p50, _ := quantile(fits, 0.5)
	p90, _ := quantile(fits, 0.9)
	m.set("core.partialfit_ms_p50", p50, "ms", len(fits))
	m.set("core.partialfit_ms_p90", p90, "ms", len(fits))
	m.set("core.partialfit_us_per_answer", ratio(fitTotal*1e3, float64(answered)), "us", answered)
	m.set("core.publish_inc_ms_p50", median(incPubs), "ms", len(incPubs))
	m.set("core.publish_full_ms_p50", median(fullPubs), "ms", len(fullPubs))
	m.set("persist.checkpoint_ms", median(saves), "ms", len(saves))
	m.set("persist.checkpoint_mb", float64(ckptBytes)/1e6, "MB", 0)
	m.set("persist.checkpoints", float64(len(saves)), "count", 0)
	return rounds, nil
}

// recoveryMetrics sets the medians of the pass's timed recoveries, and the
// stage sum relative to the real reopen.
func (p *pass) recoveryMetrics(m metricSet) {
	var load, scan, replay, publish, stages, reopen, replayed, journalMB []float64
	for _, r := range p.recoveries {
		load = append(load, ms(r.load))
		scan = append(scan, ms(r.scan))
		replay = append(replay, ms(r.replay))
		publish = append(publish, ms(r.publish))
		stages = append(stages, ms(r.stages()))
		reopen = append(reopen, ms(r.reopen))
		replayed = append(replayed, float64(r.rounds))
		journalMB = append(journalMB, float64(r.journalBytes)/1e6)
	}
	n := len(p.recoveries)
	m.set("recover.checkpoint_load_ms", median(load), "ms", n)
	m.set("recover.journal_scan_ms", median(scan), "ms", n)
	m.set("recover.replay_rounds", median(replayed), "count", n)
	m.set("recover.replay_ms", median(replay), "ms", n)
	m.set("recover.publish_ms", median(publish), "ms", n)
	m.set("recover.journal_mb", median(journalMB), "MB", n)
	m.set("recover.reopen_ms", median(reopen), "ms", n)
	m.set("recover.stage_sum_frac", ratio(median(stages), median(reopen)), "ratio", n)
}

func maxOf(xs []float64) float64 {
	v := 0.0
	for _, x := range xs {
		v = max(v, x)
	}
	return v
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
	"cpa/internal/loadgen"
	"cpa/internal/metrics"
	"cpa/internal/serve"
)

// drainTimeout bounds the wait for every acked answer to become visible.
const drainTimeout = 120 * time.Second

// metric is one reported number with its unit and the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// latency reports the p50 and, when the sample supports it, the p99 of xs.
func (m metricSet) latency(prefix string, xs []float64) {
	s := sortedCopy(xs)
	if v, ok := quantile(s, 0.5); ok {
		m.set(prefix+"_p50_ms", v, "ms", len(s))
	}
	if v, ok := quantile(s, 0.99); ok {
		m.set(prefix+"_p99_ms", v, "ms", len(s))
	}
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// mark is the state of the process and the watched jobs at one instant; a
// window is the interval between two marks over which rates are taken.
type mark struct {
	at    time.Time
	stats []serve.JobStats
	mem   runtime.MemStats
	cpu   time.Duration // user + system time of the process
}

type window struct{ begin, end mark }

func takeMark(jobs []*serve.Job) mark {
	m := mark{at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&m.mem)
	for _, j := range jobs {
		m.stats = append(m.stats, j.Stats())
	}
	return m
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one execution of one workload on one seed, traced or not.
type pass struct {
	spec   spec
	seed   int64
	window time.Duration
	traced bool
	root   string // scratch directory of this pass

	crowds  []*answers.Dataset
	jobIDs  []string
	in      inputs
	dataDir string
	tg      *target
	jobs    []*serve.Job

	reqs    []*req
	visible map[*req]time.Duration // ack→visible of each measured, acked POST
	obs     [][]obs                // per job, every publication seen
	windows []window
	polls   int
	pollDur time.Duration
	missed  int
	depths  []depthSample

	rps    float64   // records_per_s
	setup  []float64 // seconds per set-up
	heapMB float64
	f1     float64
	checks []check

	e2e, layers metricSet

	// Traced pass only.
	encodeMs   []float64
	bodyKB     float64
	recoveries []recovery
	spans      []span
}

func (p *pass) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	p.checks = append(p.checks, c)
}

// runPass runs one pass in a fresh scratch directory under root, which it
// removes again.
func runPass(s spec, seed int64, window time.Duration, traced bool, root string) (*pass, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pass{spec: s, seed: seed, window: window, traced: traced, root: dir, visible: map[*req]time.Duration{}}
	err = p.generate()
	if err == nil {
		switch {
		case s.name == restart:
			err = p.runRestart()
		case s.closed:
			err = p.runSaturate()
		default:
			err = p.runOpen()
		}
	}
	if p.tg != nil {
		p.tg.crash()
		p.tg = nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	p.e2e = p.endToEnd()
	if !traced {
		return p, nil
	}
	if s.name != restart {
		if err := p.timeRecovery(); err != nil {
			return nil, fmt.Errorf("%s: timing recovery: %w", s.name, err)
		}
	}
	if p.layers, err = p.layerMetrics(); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return p, nil
}

func (p *pass) generate() error {
	for k := range p.spec.jobs {
		ds, err := p.spec.crowd.generate(p.seed*100 + int64(k))
		if err != nil {
			return err
		}
		id := fmt.Sprintf("%s-%d", p.spec.name, k)
		p.crowds = append(p.crowds, ds)
		p.jobIDs = append(p.jobIDs, id)
		p.check("unique (item, worker) pairs in the "+id+" stream", uniquePairs(ds.Answers(), ds.NumWorkers))
	}
	p.in = describeInputs(p.crowds)
	return nil
}

// newPost makes a POST of batch to job k.
func (p *pass) newPost(k int, batch []answers.Answer) (*req, error) {
	b, err := encodeBody(batch)
	if err != nil {
		return nil, err
	}
	return p.add(&req{job: k, ans: batch, body: b}), nil
}

// newRead makes a consensus GET of job k.
func (p *pass) newRead(k int) *req { return p.add(&req{job: k}) }

func (p *pass) add(q *req) *req {
	q.id = int64(len(p.reqs) + 1)
	p.reqs = append(p.reqs, q)
	return q
}

// inputs returns the input-property block, with the body sizes and answers
// of the POSTs the pass sent.
func (p *pass) inputs() inputs {
	in := p.in
	bodies, size := 0, 0
	for _, q := range p.reqs {
		if q.ans != nil && q.attempted() {
			bodies++
			size += len(q.body)
			in.Posted += len(q.ans)
		}
	}
	in.MeanBodyBytes = ratio(float64(size), float64(bodies))
	return in
}

// bodies splits stream into POSTs of size answers for job k.
func (p *pass) bodies(k int, stream []answers.Answer, size int) ([]*req, error) {
	var out []*req
	for i := 0; i < len(stream); i += size {
		q, err := p.newPost(k, stream[i:min(i+size, len(stream))])
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

func (p *pass) createJobs(c *client) error {
	for k, ds := range p.crowds {
		body, err := json.Marshal(serve.CreateJobRequest{
			ID: p.jobIDs[k], Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
			Model: core.Config{Seed: p.seed, Parallelism: p.spec.parallelism},
		})
		if err != nil {
			return err
		}
		status, err := c.do(http.MethodPost, "/v1/jobs", "application/json", body)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("creating job %s: status %d: %s", p.jobIDs[k], status, c.buf.String())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *pass) lookupJobs() error {
	p.jobs = nil
	for _, id := range p.jobIDs {
		j, ok := p.tg.reg.Get(id)
		if !ok {
			return fmt.Errorf("job %s is not registered", id)
		}
		p.jobs = append(p.jobs, j)
	}
	return nil
}

// setupFresh sets the service up setupReps times, each time in a new data
// directory: serve.Open, the HTTP listener, and every job created over HTTP.
// The last set-up is the one the workload runs on.
func (p *pass) setupFresh() error {
	for rep := range setupReps {
		dir := filepath.Join(p.root, fmt.Sprintf("data-%d", rep))
		// Each set-up starts from a collected heap, so a collection the
		// previous one left due does not land in this one's time.
		runtime.GC()
		t0 := time.Now()
		tg, err := openTarget(dir)
		if err != nil {
			return err
		}
		c := newClient(tg.base)
		err = p.createJobs(c)
		d := time.Since(t0)
		c.close()
		if err != nil {
			tg.crash()
			return err
		}
		p.setup = append(p.setup, d.Seconds())
		if rep < setupReps-1 {
			tg.crash()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		p.tg, p.dataDir = tg, dir
	}
	return p.lookupJobs()
}

// burst drives reqs from two closed-loop posters until they are all sent or
// stopAt (zero: never) has passed.
func (p *pass) burst(reqs []*req, stopAt time.Time) {
	clients := []*client{newClient(p.tg.base), newClient(p.tg.base)}
	var next atomic.Int64
	runLanes(len(clients), func(k int) { closedLoop(clients[k], reqs, &next, stopAt, p.jobIDs) })
	for _, c := range clients {
		c.close()
	}
}

// acked counts the answers the server accepted for job k.
func (p *pass) acked(k int) int {
	n := 0
	for _, q := range p.reqs {
		if q.job == k && q.ans != nil && q.ok() {
			n += len(q.ans)
		}
	}
	return n
}

// drain waits until every acked answer is visible in its job's snapshot.
func (p *pass) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for k, j := range p.jobs {
		want := p.acked(k)
		for j.Snapshot().Answers < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s: %d of %d acked answers visible after %v",
					p.jobIDs[k], j.Snapshot().Answers, want, drainTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (p *pass) keep(w *watcher) {
	w.halt()
	if p.obs == nil {
		p.obs = make([][]obs, len(w.obs))
	}
	for k := range w.obs {
		p.obs[k] = append(p.obs[k], w.obs[k]...)
	}
	p.polls += w.polls
	p.pollDur += w.last.Sub(w.first)
	p.missed += w.missed
	p.depths = append(p.depths, w.depths...)
}

// coveredAt returns when the answers acked to job k were all visible.
func (p *pass) coveredAt(k int) (time.Time, error) {
	o, ok := firstCovering(p.obs[k], int64(p.acked(k)))
	if !ok {
		return time.Time{}, fmt.Errorf("no publication of %s covers its %d acked answers", p.jobIDs[k], p.acked(k))
	}
	return o.published, nil
}

// runSaturate posts one job's whole stream from two closed-loop posters;
// the measured interval runs from the first POST until the last answer is
// visible, or until the window has passed if that comes first.
func (p *pass) runSaturate() error {
	if err := p.setupFresh(); err != nil {
		return err
	}
	reqs, err := p.bodies(0, p.crowds[0].Answers(), p.spec.body)
	if err != nil {
		return err
	}
	w := startWatcher(p.jobs, p.traced)
	begin := takeMark(p.jobs)
	stopAt := begin.at.Add(p.window)
	p.burst(reqs, stopAt)
	derr := p.drain()
	end := takeMark(p.jobs)
	p.keep(w)
	if derr != nil {
		return derr
	}
	p.windows = append(p.windows, window{begin, end})
	last, err := p.coveredAt(0)
	if err != nil {
		return err
	}
	last = minTime(last, stopAt)
	p.rps = ratio(float64(answersAt(p.obs[0], last)), last.Sub(begin.at).Seconds())
	return p.quiesced(reqs)
}

// runOpen sets the service up and drives open-loop Poisson posts (and
// reads) on a fixed schedule: a warm-up, then the measured window.
func (p *pass) runOpen() error {
	if err := p.setupFresh(); err != nil {
		return err
	}
	streams := make([][]answers.Answer, len(p.crowds))
	for k, ds := range p.crowds {
		streams[k] = ds.Answers()
	}
	lanes, err := p.schedule(rand.New(rand.NewSource(p.seed)), streams, p.spec.warmup+p.window)
	if err != nil {
		return err
	}
	w := startWatcher(p.jobs, p.traced)
	measured := p.drive(lanes, p.spec.warmup, p.window)
	derr := p.drain()
	p.keep(w)
	if derr != nil {
		return derr
	}
	p.rps = p.visibleRate()
	return p.quiesced(measured)
}

// posts is how many POSTs an open-loop job sends in d.
func (s spec) posts(d time.Duration) int {
	return int(math.Round(s.rate * d.Seconds() / float64(s.body)))
}

// schedule lays out an open-loop run of length total: job k posts rate
// answers/s from streams[k] at uniform due times, and the reader, if any,
// GETs job 0. Each of at most two load goroutines follows one lane; the
// reader has the second.
func (p *pass) schedule(rng *rand.Rand, streams [][]answers.Answer, total time.Duration) ([][]*req, error) {
	lanes := make([][]*req, 2)
	perLane := (len(streams) + 1) / 2
	n := p.spec.posts(total)
	for k, stream := range streams {
		if n*p.spec.body > len(stream) {
			return nil, fmt.Errorf("job %s has %d answers left, fewer than the %d a %v load posts",
				p.jobIDs[k], len(stream), n*p.spec.body, total)
		}
		for i, at := range uniformSchedule(rng, n, total) {
			q, err := p.newPost(k, stream[i*p.spec.body:(i+1)*p.spec.body])
			if err != nil {
				return nil, err
			}
			q.at = at
			lanes[k/perLane] = append(lanes[k/perLane], q)
		}
	}
	if p.spec.readRate > 0 {
		n := int(math.Round(p.spec.readRate * total.Seconds()))
		for _, at := range uniformSchedule(rng, n, total) {
			q := p.newRead(0)
			q.at = at
			lanes[1] = append(lanes[1], q)
		}
	}
	lanes = slices.DeleteFunc(lanes, func(l []*req) bool { return len(l) == 0 })
	for _, l := range lanes {
		slices.SortStableFunc(l, func(a, b *req) int { return int(a.at - b.at) })
	}
	return lanes, nil
}

// drive sends the lanes' requests on their schedule, one load goroutine per
// lane, records the measured window that follows the warm-up, and returns
// the requests due in it.
func (p *pass) drive(lanes [][]*req, warmup, length time.Duration) []*req {
	clients := make([]*client, len(lanes))
	for k := range clients {
		clients[k] = newClient(p.tg.base)
	}
	start := time.Now().Add(50 * time.Millisecond)
	wBegin := start.Add(warmup)
	wEnd := wBegin.Add(length)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runLanes(len(lanes), func(k int) { openLoop(clients[k], start, lanes[k], p.jobIDs) })
	}()
	time.Sleep(time.Until(wBegin))
	begin := takeMark(p.jobs)
	time.Sleep(time.Until(wEnd))
	end := takeMark(p.jobs)
	<-done
	for _, c := range clients {
		c.close()
	}
	p.windows = append(p.windows, window{begin, end})
	var measured []*req
	for _, l := range lanes {
		for _, q := range l {
			if !q.due.Before(begin.at) && q.due.Before(end.at) {
				measured = append(measured, q)
			}
		}
	}
	return measured
}

// visibleRate is the answers made visible per second of measured window,
// summed over the jobs.
func (p *pass) visibleRate() float64 {
	visible, secs := 0, 0.0
	for _, w := range p.windows {
		for k := range p.jobs {
			visible += answersAt(p.obs[k], w.end.at) - answersAt(p.obs[k], w.begin.at)
		}
		secs += w.end.at.Sub(w.begin.at).Seconds()
	}
	return ratio(float64(visible), secs)
}

// runRestart sets the service up, journals the first part of one job's
// stream (untimed), kills the service, and then runs cycles: reopen the
// crashed directory and GET the consensus (in a traced pass, the time
// without service), check it matches the pre-crash snapshot, serve
// open-loop posts for an equal share of the window, and kill the service
// again.
func (p *pass) runRestart() error {
	s := p.spec
	stream := p.crowds[0].Answers()
	burst := p.window / time.Duration(s.cycles)
	perCycle := s.posts(burst) * s.body
	if need := s.build + s.cycles*perCycle; need > len(stream) {
		return fmt.Errorf("stream holds %d answers, fewer than the %d the cycles post", len(stream), need)
	}
	if err := p.setupFresh(); err != nil {
		return err
	}
	build, err := p.bodies(0, stream[:s.build], 64)
	if err != nil {
		return err
	}
	w := startWatcher(p.jobs, false)
	p.burst(build, time.Time{})
	derr := p.drain()
	p.keep(w)
	if derr != nil {
		return derr
	}
	pre, err := p.consensus()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.seed))
	var measured []*req
	for cyc := range s.cycles {
		p.tg.crash()
		p.tg = nil
		if p.traced {
			rec, err := stopwatchRecovery(p.dataDir, p.jobIDs)
			if err != nil {
				return err
			}
			p.recoveries = append(p.recoveries, rec)
		}
		t0 := time.Now()
		if p.tg, err = openTarget(p.dataDir); err != nil {
			return err
		}
		c := newClient(p.tg.base)
		body, err := c.consensus(p.jobIDs[0])
		d := time.Since(t0)
		c.close()
		if err != nil {
			return err
		}
		if p.traced {
			p.recoveries[len(p.recoveries)-1].reopen = d
		}
		p.check(fmt.Sprintf("reopen %d serves the pre-crash snapshot", cyc+1), sameSnapshot(pre, body))
		if err := p.lookupJobs(); err != nil {
			return err
		}

		from := s.build + cyc*perCycle
		lanes, err := p.schedule(rng, [][]answers.Answer{stream[from : from+perCycle]}, burst)
		if err != nil {
			return err
		}
		w := startWatcher(p.jobs, p.traced)
		measured = append(measured, p.drive(lanes, 0, burst)...)
		derr := p.drain()
		p.keep(w)
		if derr != nil {
			return derr
		}
		if cyc == s.cycles-1 {
			if err := p.quiesced(measured); err != nil {
				return err
			}
		}
		if pre, err = p.consensus(); err != nil {
			return err
		}
	}
	p.rps = p.visibleRate()
	return nil
}

// consensus GETs the first job's consensus body.
func (p *pass) consensus() ([]byte, error) {
	c := newClient(p.tg.base)
	defer c.close()
	b, err := c.consensus(p.jobIDs[0])
	return bytes.Clone(b), err
}

// sameSnapshot compares two consensus bodies field by field, ignoring the
// publication time.
func sameSnapshot(a, b []byte) error {
	var ma, mb map[string]json.RawMessage
	if err := json.Unmarshal(a, &ma); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &mb); err != nil {
		return err
	}
	delete(ma, "created_at")
	delete(mb, "created_at")
	if len(ma) != len(mb) {
		return fmt.Errorf("%d fields before the crash, %d after", len(ma), len(mb))
	}
	for k, va := range ma {
		if !bytes.Equal(va, mb[k]) {
			return fmt.Errorf("field %q differs after recovery", k)
		}
	}
	return nil
}

// quiesced runs once every acked answer is visible: the correctness checks,
// the consensus quality, the live heap, and the ack→visible latency of each
// measured POST.
func (p *pass) quiesced(measured []*req) error {
	f1 := 0.0
	for k, j := range p.jobs {
		id := p.jobIDs[k]
		snap := j.Snapshot()
		var err error
		if snap.Answers != p.acked(k) {
			err = fmt.Errorf("snapshot covers %d answers, %d were acked", snap.Answers, p.acked(k))
		}
		p.check("acked answers equal the snapshot's answers in "+id, err)
		p.check("served snapshot equals the journal replay in "+id,
			loadgen.CheckReplay(serve.JournalPath(p.dataDir, id), j.Spec(), snap))
		v, err := consensusF1(p.crowds[k], snap)
		if err != nil {
			return err
		}
		f1 += v / float64(len(p.jobs))
		if p.traced && k == 0 {
			for range 5 {
				t0 := time.Now()
				b, err := json.Marshal(snap)
				if err != nil {
					return err
				}
				p.encodeMs = append(p.encodeMs, ms(time.Since(t0)))
				p.bodyKB = float64(len(b)) / 1024
			}
		}
	}
	p.f1 = f1
	var mem runtime.MemStats
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch does not count as live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	p.heapMB = float64(mem.HeapAlloc) / 1e6
	return p.resolveVisibility(measured)
}

// resolveVisibility maps each measured, acked POST to the journal position
// of its last answer and to the first publication covering it.
func (p *pass) resolveVisibility(measured []*req) error {
	pos := make([]map[int]int64, len(p.jobs))
	for k, ds := range p.crowds {
		m, err := journalPositions(serve.JournalPath(p.dataDir, p.jobIDs[k]), ds.NumWorkers)
		if err != nil {
			return err
		}
		pos[k] = m
	}
	var unresolved error
	for _, q := range measured {
		q.measured = true
		if q.ans == nil || !q.ok() {
			continue
		}
		last, ok := lastPosition(pos[q.job], q.ans, p.crowds[q.job].NumWorkers)
		if !ok {
			unresolved = fmt.Errorf("request %d: an acked answer is missing from the journal", q.id)
			continue
		}
		o, ok := firstCovering(p.obs[q.job], last)
		if !ok {
			unresolved = fmt.Errorf("request %d: no publication covers journal position %d", q.id, last)
			continue
		}
		p.visible[q] = visibleAfter(q.done, o.published)
	}
	p.check("every acked request became visible", unresolved)
	return nil
}

func consensusF1(ds *answers.Dataset, snap *serve.Snapshot) (float64, error) {
	pred := make([]labelset.Set, ds.NumItems)
	for i := range pred {
		pred[i] = labelset.New(ds.NumLabels)
	}
	for _, it := range snap.Consensus {
		for _, l := range it.Labels {
			pred[it.Item].Add(l)
		}
	}
	pr, err := metrics.Evaluate(ds, pred)
	return pr.F1(), err
}

// counts returns the operations a pass attempted and the ones that failed: a
// transport error, a timeout, a non-2xx reply (a retried 429 is not a
// failure) and every failed correctness check.
func (p *pass) counts() (attempted, failed int64) {
	for _, q := range p.reqs {
		if q.attempted() {
			attempted++
			if !q.ok() {
				failed++
			}
		}
	}
	for _, c := range p.checks {
		attempted++
		if !c.OK {
			failed++
		}
	}
	return attempted, failed
}

// endToEnd computes the pass's end-to-end metrics.
func (p *pass) endToEnd() metricSet {
	m := metricSet{}
	var ack, vis, read []float64
	for _, q := range p.reqs {
		if !q.measured || !q.ok() {
			continue
		}
		if q.ans == nil {
			read = append(read, ms(q.done.Sub(q.due)))
			continue
		}
		ack = append(ack, ms(q.done.Sub(q.due)))
		if v, ok := p.visible[q]; ok {
			vis = append(vis, ms(v))
		}
	}
	m.set("records_per_s", p.rps, "1/s", 0)
	m.latency("ack", ack)
	m.latency("visible", vis)
	m.latency("read", read)
	m.set("setup_s", median(p.setup), "s", len(p.setup))
	m.set("heap_live_mb", p.heapMB, "MB", 0)
	attempted, failed := p.counts()
	m.set("error_frac", ratio(float64(failed), float64(attempted)), "ratio", int(attempted))
	m.set("consensus_f1", p.f1, "ratio", len(p.jobs))
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

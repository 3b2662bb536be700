package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cpa/internal/answers"
	"cpa/internal/serve"
)

// requestTimeout bounds one HTTP request; a request that hits it fails.
const requestTimeout = 30 * time.Second

// queueLimit is the service's per-job queue bound (serve's default is
// 65536). Only saturate reaches it. At the
// default, saturate's 110k stream would spend most of its posts filling the
// queue, and its median visible latency would sit in that ramp; at this
// limit most of the stream runs under steady backpressure, where the
// visible latency is the queue's drain time.
const queueLimit = 16384

// target is the system under test: a persistent serve.Registry behind
// serve.NewServer on a loopback listener, in this process.
type target struct {
	reg  *serve.Registry
	srv  *http.Server
	base string
	done chan struct{}
}

func openTarget(dir string) (*target, error) {
	reg, err := serve.Open(serve.Config{Dir: dir, QueueLimit: queueLimit})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.CrashAll()
		return nil, err
	}
	t := &target{
		reg:  reg,
		srv:  &http.Server{Handler: serve.NewServer(reg)},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(t.done)
		_ = t.srv.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	return t, nil
}

// crash stops serving and kills every job as kill -9 would: no drain and no
// final checkpoint.
func (t *target) crash() {
	_ = t.srv.Close()
	<-t.done
	t.reg.CrashAll()
}

// client is one load connection: its transport keeps at most one idle
// connection, so each load goroutine drives the server over its own
// keep-alive connection. Reply bodies are read into a reused buffer so the
// harness adds little garbage to the process it shares with the server.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.buf.
func (c *client) do(method, path, ctype string, body []byte) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// consensus fetches a job's published consensus; the body is valid until the
// client's next request.
func (c *client) consensus(job string) ([]byte, error) {
	status, err := c.do(http.MethodGet, "/v1/jobs/"+job+"/consensus", "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET consensus of %s: status %d", job, status)
	}
	return c.buf.Bytes(), err
}

// req is one load request, a POST of answers or (ans == nil) a consensus GET,
// with what happened to it. A req is written by the one goroutine that sends
// it and read only after that goroutine has finished.
type req struct {
	id   int64
	job  int
	at   time.Duration // open loop: due offset from the schedule start
	ans  []answers.Answer
	body []byte

	due, sent, done time.Time
	status          int
	rejected        int // 429 replies
	err             error

	// measured marks a request of the measured window; only those enter the
	// latency metrics.
	measured bool
}

func (q *req) attempted() bool { return !q.sent.IsZero() }

func (q *req) ok() bool {
	return q.err == nil && (q.status == http.StatusAccepted || q.status == http.StatusOK)
}

// exec sends q and records its outcome. A closed-loop poster retries a 429
// after retryDelay; in an open loop a 429 fails the request.
func (c *client) exec(q *req, jobIDs []string, retry bool) {
	q.sent = time.Now()
	for {
		if q.ans == nil {
			q.status, q.err = c.do(http.MethodGet, "/v1/jobs/"+jobIDs[q.job]+"/consensus", "", nil)
		} else {
			q.status, q.err = c.do(http.MethodPost, "/v1/jobs/"+jobIDs[q.job]+"/answers", "application/x-ndjson", q.body)
		}
		if q.err != nil || q.status != http.StatusTooManyRequests {
			break
		}
		q.rejected++
		if !retry {
			break
		}
		time.Sleep(retryDelay)
	}
	q.done = time.Now()
}

// closedLoop sends requests from the shared list until it is exhausted or
// stopAt (zero: never) has passed; each request is due when the poster
// takes it.
func closedLoop(c *client, reqs []*req, next *atomic.Int64, stopAt time.Time, jobIDs []string) {
	for {
		i := next.Add(1) - 1
		if int(i) >= len(reqs) || (!stopAt.IsZero() && time.Now().After(stopAt)) {
			return
		}
		q := reqs[i]
		q.due = time.Now()
		c.exec(q, jobIDs, true)
	}
}

// openLoop sends each request at its due time, never earlier. A request the
// goroutine reaches late is still timed from its due time, so a stall is
// charged to every request it delays.
func openLoop(c *client, start time.Time, lane []*req, jobIDs []string) {
	for _, q := range lane {
		q.due = start.Add(q.at)
		if d := time.Until(q.due); d > 0 {
			time.Sleep(d)
		}
		c.exec(q, jobIDs, false)
	}
}

// runLanes runs one goroutine per lane and waits for all of them.
func runLanes(n int, body func(k int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for k := range n {
		go func() {
			defer wg.Done()
			body(k)
		}()
	}
	wg.Wait()
}

// obs is one publication the watcher saw.
type obs struct {
	round, answers int
	published      time.Time // Snapshot.CreatedAt: set by the server as it publishes
}

// depthSample is the summed queue depth of the watched jobs at one instant.
type depthSample struct {
	at    time.Time
	depth int
}

// pollEvery is the watcher's polling period. Publications are tens of
// milliseconds apart, so a 2 ms poll sees each one (missed counts any it
// does not); the visibility time is the server's publication stamp, not the
// poll time.
const pollEvery = 2 * time.Millisecond

// depthEvery is the queue-depth sampling period of a traced pass.
const depthEvery = 10 * time.Millisecond

// watcher observes the watched jobs' publications through the public
// (*serve.Job).Snapshot and, in a traced pass, samples their queue depths.
type watcher struct {
	jobs        []*serve.Job
	sampleDepth bool

	obs         [][]obs
	depths      []depthSample
	polls       int
	missed      int
	first, last time.Time

	stop, done chan struct{}
}

func startWatcher(jobs []*serve.Job, sampleDepth bool) *watcher {
	return watch(jobs, sampleDepth, pollEvery)
}

// watch starts a watcher that polls every period.
func watch(jobs []*serve.Job, sampleDepth bool, every time.Duration) *watcher {
	w := &watcher{
		jobs:        jobs,
		sampleDepth: sampleDepth,
		obs:         make([][]obs, len(jobs)),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go w.loop(every)
	return w
}

func (w *watcher) loop(every time.Duration) {
	defer close(w.done)
	last := make([]*serve.Snapshot, len(w.jobs))
	var nextDepth time.Time
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		nextDepth = w.poll(last, nextDepth)
		select {
		case <-w.stop:
			// The final poll follows halt's call, so it sees every
			// publication made before it, however late this goroutine ran.
			w.poll(last, nextDepth)
			return
		case <-tick.C:
		}
	}
}

// poll records each job's snapshot if it is new since last, and samples the
// queue depths when nextDepth has passed; it returns the next sampling time.
func (w *watcher) poll(last []*serve.Snapshot, nextDepth time.Time) time.Time {
	now := time.Now()
	if w.first.IsZero() {
		w.first = now
	}
	w.last = now
	w.polls++
	for k, j := range w.jobs {
		s := j.Snapshot()
		if s == last[k] {
			continue
		}
		if last[k] != nil && s.Round > last[k].Round+1 {
			w.missed += s.Round - last[k].Round - 1
		}
		last[k] = s
		w.obs[k] = append(w.obs[k], obs{round: s.Round, answers: s.Answers, published: s.CreatedAt})
	}
	if w.sampleDepth && !now.Before(nextDepth) {
		d := 0
		for _, j := range w.jobs {
			d += j.Stats().QueueDepth
		}
		w.depths = append(w.depths, depthSample{at: now, depth: d})
		nextDepth = now.Add(depthEvery)
	}
	return nextDepth
}

// halt stops the watcher after one last poll, so every publication made
// before the call is observed, and waits for it to exit.
func (w *watcher) halt() {
	close(w.stop)
	<-w.done
}

// answersAt returns how many answers the publications in o had made visible
// at time t.
func answersAt(o []obs, t time.Time) int {
	k := sort.Search(len(o), func(i int) bool { return o[i].published.After(t) })
	if k == 0 {
		return 0
	}
	return o[k-1].answers
}

// journalPositions maps each journaled answer, keyed by item and worker, to
// its 1-based position among the job's answer records: the Answers count a
// published snapshot must reach to cover it (the fitter consumes answers in
// journal order).
func journalPositions(path string, workers int) (map[int]int64, error) {
	pos := make(map[int]int64)
	var n int64
	err := serve.ReadJournal(path, func(e serve.JournalEntry) error {
		if e.Answer != nil {
			n++
			pos[e.Answer.Item*workers+e.Answer.Worker] = n
		}
		return nil
	})
	return pos, err
}

// lastPosition returns the journal position of a request's last-journaled
// answer; false when one of its answers is not in the journal.
func lastPosition(pos map[int]int64, batch []answers.Answer, workers int) (int64, bool) {
	var last int64
	for _, a := range batch {
		p, ok := pos[a.Item*workers+a.Worker]
		if !ok {
			return 0, false
		}
		last = max(last, p)
	}
	return last, true
}

// firstCovering returns the first observed publication whose Answers reach
// pos. Answers never decrease from one publication to the next.
func firstCovering(o []obs, pos int64) (obs, bool) {
	k := sort.Search(len(o), func(i int) bool { return int64(o[i].answers) >= pos })
	if k == len(o) {
		return obs{}, false
	}
	return o[k], true
}

// visibleAfter is the ack→visible latency: the time from the 202 to the
// covering publication, or 0 when that publication preceded the ack.
func visibleAfter(ack, published time.Time) time.Duration {
	return max(published.Sub(ack), 0)
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cpa/internal/serve"
)

// Router owns the cluster map and fronts every client interaction:
//
//   - Writes go to the job's shard primary, stamped with the current
//     ownership epoch, and are acked only once at least one follower has
//     applied past the batch's journal offset (the replication barrier) —
//     so promotion of the most-caught-up follower can never lose an acked
//     answer, even on kill -9.
//   - Reads go to the primary, or — with ?replica=node — to a follower the
//     router verifies is current (member of the live replica set, applied
//     past the ack watermark); deposed or stale nodes are refused, never
//     silently served.
//   - Failover promotes the most-caught-up follower under the job's write
//     gate; planned handoff fences the primary, quiesces it, drains the
//     target to the final journal offset and promotes — the gate holds
//     client writes (briefly) instead of failing them.
//
// Its endpoints:
//
//	POST /v1/jobs                       create (placed by rendezvous hashing)
//	POST /v1/jobs/{id}/answers          ingest via the shard primary
//	GET  /v1/jobs/{id}                  stats from the primary
//	GET  /v1/jobs/{id}/consensus        consensus (?replica=node for a follower)
//	GET  /v1/jobs/{id}/items/{item}     one item, from the primary
//	POST /v1/cluster/handoff            {"job":id,"to":node} planned handoff
//	GET  /clusterz                      cluster map introspection
//	GET  /statsz                        per-job replication lag, live
//	GET  /healthz                       liveness
type Router struct {
	client *http.Client // proxy + control traffic
	probe  *http.Client // short-timeout liveness checks

	mu     sync.Mutex
	nodes  map[string]*nodeState
	shards []ShardSpec // current shard-level layout for new placements
	jobs   map[string]*jobRoute
	mux    *http.ServeMux
}

type nodeState struct {
	url  string
	down bool
}

// jobRoute is one job's live routing state. The gate serialises the write
// path against ownership changes: ingests hold it shared, failover and
// handoff hold it exclusively, so an ownership change observes no in-flight
// writes and new writes observe the new owner.
type jobRoute struct {
	id        string
	shard     int
	primary   string
	followers []string
	epoch     int64
	acked     int64 // replication ack watermark (journal bytes)
	gate      sync.RWMutex
}

// Timeouts of the router's distributed steps.
const (
	barrierTimeout = 30 * time.Second // follower catch-up before a write acks
	quiesceTimeout = 30 * time.Second // fenced primary draining its queue
	drainTimeout   = 30 * time.Second // promotion target draining the suffix
)

// NewRouter builds a router over a validated topology.
func NewRouter(spec MapSpec) (*Router, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rt := &Router{
		client: &http.Client{Timeout: 60 * time.Second},
		probe:  &http.Client{Timeout: 2 * time.Second},
		nodes:  make(map[string]*nodeState, len(spec.Nodes)),
		shards: append([]ShardSpec(nil), spec.Shards...),
		jobs:   make(map[string]*jobRoute),
		mux:    http.NewServeMux(),
	}
	for name, url := range spec.Nodes {
		rt.nodes[name] = &nodeState{url: url}
	}
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleCreateJob)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleListJobs)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobStats)
	rt.mux.HandleFunc("POST /v1/jobs/{id}/answers", rt.handleIngest)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/consensus", rt.handleConsensus)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/items/{item}", rt.handleItem)
	rt.mux.HandleFunc("POST /v1/cluster/handoff", rt.handleHandoff)
	rt.mux.HandleFunc("GET /clusterz", rt.handleClusterz)
	rt.mux.HandleFunc("GET /statsz", rt.handleStatsz)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// SetNodeURL re-points a node name (a restarted node listening on a new
// address). Test and operator hook.
func (rt *Router) SetNodeURL(name, url string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ns, ok := rt.nodes[name]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	ns.url = url
	return nil
}

func (rt *Router) nodeURL(name string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ns, ok := rt.nodes[name]
	if !ok {
		return "", fmt.Errorf("cluster: unknown node %q", name)
	}
	return ns.url, nil
}

func (rt *Router) job(id string) (*jobRoute, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	route, ok := rt.jobs[id]
	return route, ok
}

// routeView snapshots a route's mutable fields under the router lock.
func (rt *Router) routeView(route *jobRoute) (primary, primaryURL string, followers []string, epoch, acked int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	primary = route.primary
	if ns, ok := rt.nodes[primary]; ok {
		primaryURL = ns.url
	}
	followers = append([]string(nil), route.followers...)
	return primary, primaryURL, followers, route.epoch, route.acked
}

// ---------------------------------------------------------------------------
// Create & placement
// ---------------------------------------------------------------------------

func (rt *Router) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
		return
	}
	var probe struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || probe.ID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("create body needs an id"))
		return
	}
	stats, status, err := rt.CreateJob(probe.ID, body)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, stats)
}

// CreateJob places a job on its rendezvous shard, creates it on the shard
// primary (rawBody is the client's CreateJobRequest, forwarded verbatim)
// and starts replication on every shard follower.
func (rt *Router) CreateJob(id string, rawBody []byte) (serve.JobStats, int, error) {
	var zero serve.JobStats
	rt.mu.Lock()
	if _, exists := rt.jobs[id]; exists {
		rt.mu.Unlock()
		return zero, http.StatusConflict, fmt.Errorf("job %q already routed", id)
	}
	shard := ShardFor(id, len(rt.shards))
	sh := rt.shards[shard]
	primaryURL := rt.nodes[sh.Primary].url
	rt.mu.Unlock()

	resp, err := rt.client.Post(primaryURL+"/v1/jobs", "application/json", bytes.NewReader(rawBody))
	if err != nil {
		return zero, http.StatusBadGateway, fmt.Errorf("creating on %s: %w", sh.Primary, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		apiErr := readAPIError(resp)
		return zero, resp.StatusCode, apiErr
	}
	var stats serve.JobStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return zero, http.StatusBadGateway, fmt.Errorf("decoding create response: %w", err)
	}
	for _, f := range sh.Followers {
		fURL, err := rt.nodeURL(f)
		if err == nil {
			err = postJSON(rt.client, fURL+"/v1/replicate/"+id, replicateRequest{Source: primaryURL}, nil)
		}
		if err != nil {
			return zero, http.StatusBadGateway,
				fmt.Errorf("starting replication of %q on %s: %w", id, f, err)
		}
	}
	rt.mu.Lock()
	rt.jobs[id] = &jobRoute{
		id: id, shard: shard,
		primary:   sh.Primary,
		followers: append([]string(nil), sh.Followers...),
	}
	rt.mu.Unlock()
	return stats, http.StatusCreated, nil
}

// ---------------------------------------------------------------------------
// Writes: proxy + replication barrier
// ---------------------------------------------------------------------------

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	route, ok := rt.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q: not routed", id))
		return
	}
	route.gate.RLock()
	primary, primaryURL, followers, epoch, _ := rt.routeView(route)

	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		primaryURL+"/v1/jobs/"+id+"/answers", http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		route.gate.RUnlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	req.Header.Set("X-CPA-Epoch", fmt.Sprintf("%d", epoch))
	resp, err := rt.client.Do(req)
	if err != nil {
		// The primary is unreachable. Release the shared gate (failover
		// takes it exclusively), promote the most-caught-up follower, and
		// let the client retry against the new owner — the router does NOT
		// retry itself: the dead primary may have journaled and shipped the
		// batch before dying, and a blind replay would double-ingest it.
		route.gate.RUnlock()
		if ferr := rt.FailoverJob(id); ferr != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Errorf("primary %s unreachable (%v); failover failed: %v", primary, err, ferr))
			return
		}
		writeError(w, http.StatusBadGateway,
			fmt.Errorf("primary %s unreachable (%v); failed over, retry", primary, err))
		return
	}
	defer route.gate.RUnlock()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		forwardResponse(w, resp)
		return
	}
	var ack serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("decoding ingest ack: %w", err))
		return
	}
	// Replication barrier: don't ack the client until some follower has
	// applied past this batch's journal end. Promotion always picks the
	// most-caught-up follower, so one follower at the offset is enough for
	// the acked-durable guarantee to survive a primary kill.
	if len(followers) > 0 {
		if err := rt.awaitReplication(id, followers, ack.JournalBytes); err != nil {
			writeError(w, http.StatusGatewayTimeout, err)
			return
		}
	}
	rt.mu.Lock()
	if ack.JournalBytes > route.acked {
		route.acked = ack.JournalBytes
	}
	rt.mu.Unlock()
	writeJSON(w, http.StatusAccepted, ack)
}

// awaitReplication polls the followers until the max applied offset reaches
// target.
func (rt *Router) awaitReplication(id string, followers []string, target int64) error {
	deadline := time.Now().Add(barrierTimeout)
	for {
		best := int64(-1)
		for _, f := range followers {
			fURL, err := rt.nodeURL(f)
			if err != nil {
				continue
			}
			var st ReplicaStats
			if err := getJSON(rt.client, fURL+"/v1/replicate/"+id, &st); err != nil {
				continue
			}
			if st.AppliedBytes > best {
				best = st.AppliedBytes
			}
		}
		if best >= target {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("replication barrier: no follower of %q reached offset %d (best %d)", id, target, best)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

func (rt *Router) handleConsensus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	route, ok := rt.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q: not routed", id))
		return
	}
	primary, primaryURL, followers, _, acked := rt.routeView(route)
	target, targetURL := primary, primaryURL
	if replica := r.URL.Query().Get("replica"); replica != "" && replica != primary {
		// Explicit replica reads are verified, never best-effort: the node
		// must be in the job's live replica set (a deposed ex-primary is
		// not, so its stale snapshots are unservable through the router) and
		// must have applied past the ack watermark.
		if !contains(followers, replica) {
			writeError(w, http.StatusConflict,
				fmt.Errorf("node %q is not a current replica of %q", replica, id))
			return
		}
		fURL, err := rt.nodeURL(replica)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		var st ReplicaStats
		if err := getJSON(rt.client, fURL+"/v1/replicate/"+id, &st); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("replica %q: %v", replica, err))
			return
		}
		if st.Wedged || st.AppliedBytes < acked {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("replica %q behind (applied %d < acked %d) %s", replica, st.AppliedBytes, acked, st.Error))
			return
		}
		target, targetURL = replica, fURL
	}
	resp, err := rt.client.Get(targetURL + "/v1/jobs/" + id + "/consensus")
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("reading consensus from %s: %v", target, err))
		return
	}
	defer resp.Body.Close()
	forwardResponse(w, resp)
}

func (rt *Router) handleItem(w http.ResponseWriter, r *http.Request) {
	rt.proxyPrimary(w, r, "/items/"+r.PathValue("item"))
}

func (rt *Router) handleJobStats(w http.ResponseWriter, r *http.Request) {
	rt.proxyPrimary(w, r, "")
}

func (rt *Router) proxyPrimary(w http.ResponseWriter, r *http.Request, suffix string) {
	id := r.PathValue("id")
	route, ok := rt.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q: not routed", id))
		return
	}
	primary, primaryURL, _, _, _ := rt.routeView(route)
	resp, err := rt.client.Get(primaryURL + "/v1/jobs/" + id + suffix)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("primary %s: %v", primary, err))
		return
	}
	defer resp.Body.Close()
	forwardResponse(w, resp)
}

func (rt *Router) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.jobs))
	for id := range rt.jobs {
		ids = append(ids, id)
	}
	rt.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": ids})
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

// FailoverJob promotes the most-caught-up follower of a job whose primary
// is unreachable. No-op (nil) if the primary answers a liveness probe by
// the time the write gate is held — a racing failover already fixed it, or
// the outage was transient.
func (rt *Router) FailoverJob(id string) error {
	route, ok := rt.job(id)
	if !ok {
		return fmt.Errorf("cluster: job %q not routed", id)
	}
	route.gate.Lock()
	defer route.gate.Unlock()

	primary, primaryURL, followers, epoch, _ := rt.routeView(route)
	if err := getJSON(rt.probe, primaryURL+"/healthz", nil); err == nil {
		return nil
	}
	if len(followers) == 0 {
		return fmt.Errorf("cluster: job %q has no followers to promote", id)
	}

	// Pick the most-caught-up follower. Every acked write waited for some
	// follower to pass its offset, so the max is ≥ every ack watermark.
	winner, winnerURL, best := "", "", int64(-1)
	for _, f := range followers {
		fURL, err := rt.nodeURL(f)
		if err != nil {
			continue
		}
		var st ReplicaStats
		if err := getJSON(rt.client, fURL+"/v1/replicate/"+id, &st); err != nil {
			continue
		}
		// A transient source-fetch error is expected here — the source just
		// died. Only a wedged replica (failed apply) is unpromotable.
		if st.Wedged {
			continue
		}
		if st.AppliedBytes > best {
			winner, winnerURL, best = f, fURL, st.AppliedBytes
		}
	}
	if winner == "" {
		return fmt.Errorf("cluster: job %q: no reachable follower to promote", id)
	}
	newEpoch := epoch + 1
	var stats serve.JobStats
	if err := postJSON(rt.client, winnerURL+"/v1/replicate/"+id+"/promote",
		promoteRequest{Epoch: newEpoch, MinBytes: best, Checkpoint: false}, &stats); err != nil {
		return fmt.Errorf("cluster: promoting %s for %q: %w", winner, id, err)
	}

	rest := remove(followers, winner)
	rt.mu.Lock()
	route.primary = winner
	route.followers = rest
	route.epoch = newEpoch
	if ns, ok := rt.nodes[primary]; ok {
		ns.down = true
	}
	// New jobs must not be placed on the dead node either.
	for i := range rt.shards {
		if rt.shards[i].Primary == primary {
			rt.shards[i].Primary = winner
			rt.shards[i].Followers = remove(rt.shards[i].Followers, winner)
		}
	}
	rt.mu.Unlock()

	// Surviving followers were tailing the dead node; restart them against
	// the new primary (their journal is a prefix of the new primary's, but
	// resumption is from scratch — correctness first). Best effort: a
	// follower that cannot re-point just stays behind and fails barrier
	// checks until an operator intervenes.
	for _, f := range rest {
		if fURL, err := rt.nodeURL(f); err == nil {
			_ = postJSON(rt.client, fURL+"/v1/replicate/"+id, replicateRequest{Source: winnerURL}, nil)
		}
	}
	return nil
}

// NodeReturned marks a node reachable again and fences every job it might
// still hold a stale primary copy of: a node that died as primary and
// recovered its on-disk jobs would otherwise come back writable at the old
// epoch, and a client talking to it directly could get answers acked that
// the cluster never replicates. After fencing, its ingestion returns 409.
func (rt *Router) NodeReturned(name string) error {
	url, err := rt.nodeURL(name)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.nodes[name].down = false
	type fenceTarget struct {
		id    string
		epoch int64
	}
	var targets []fenceTarget
	for id, route := range rt.jobs {
		if route.primary != name {
			targets = append(targets, fenceTarget{id, route.epoch})
		}
	}
	rt.mu.Unlock()
	for _, t := range targets {
		// 404s (the node never hosted the job) are fine; so is any other
		// failure — the epoch stamp already fences router-proxied writes,
		// this closes the direct-client side channel.
		_ = postJSON(rt.client, url+"/v1/jobs/"+t.id+"/fence", map[string]int64{"epoch": t.epoch}, nil)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Planned handoff
// ---------------------------------------------------------------------------

type handoffRequest struct {
	Job string `json:"job"`
	To  string `json:"to"`
}

func (rt *Router) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var req handoffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad handoff body: %v", err))
		return
	}
	if err := rt.Handoff(req.Job, req.To); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "job": req.Job, "primary": req.To})
}

// Handoff transfers a job's ownership to one of its current followers with
// zero write loss and zero downtime beyond the gate hold:
//
//  1. take the job's write gate (new ingests park, in-flight ones finish);
//  2. fence the old primary at epoch+1 — stragglers hitting it directly
//     now get 409;
//  3. wait for the fenced primary to quiesce (queue drained, last round
//     published) and read its final journal length;
//  4. have the target drain the shipped suffix to exactly that length,
//     fetch the primary's checkpoint, and adopt the journal via the
//     standard recovery path at epoch+1;
//  5. swap the map and release the gate — parked writes proceed against
//     the new primary, stamped with the new epoch.
//
// No acked answer can be lost: every ack happened either before the gate
// (its bytes are below the final length the target drained to) or after
// the swap (it went to the new primary).
func (rt *Router) Handoff(id, target string) error {
	route, ok := rt.job(id)
	if !ok {
		return fmt.Errorf("cluster: job %q not routed", id)
	}
	route.gate.Lock()
	defer route.gate.Unlock()

	primary, primaryURL, followers, epoch, _ := rt.routeView(route)
	if target == primary {
		return nil
	}
	if !contains(followers, target) {
		return fmt.Errorf("cluster: %q is not a follower of %q", target, id)
	}
	targetURL, err := rt.nodeURL(target)
	if err != nil {
		return err
	}
	newEpoch := epoch + 1
	if err := postJSON(rt.client, primaryURL+"/v1/jobs/"+id+"/fence",
		map[string]int64{"epoch": newEpoch}, nil); err != nil {
		return fmt.Errorf("cluster: fencing %s: %w", primary, err)
	}
	finalBytes, err := rt.quiescePrimary(primaryURL, id)
	if err != nil {
		// Roll the fence back: the old primary resumes ownership at the new
		// epoch rather than leaving the job write-dead.
		_ = postJSON(rt.client, primaryURL+"/v1/jobs/"+id+"/promote", map[string]int64{"epoch": newEpoch}, nil)
		rt.mu.Lock()
		route.epoch = newEpoch
		rt.mu.Unlock()
		return err
	}
	var stats serve.JobStats
	if err := postJSON(rt.client, targetURL+"/v1/replicate/"+id+"/promote",
		promoteRequest{Epoch: newEpoch, MinBytes: finalBytes, Checkpoint: true}, &stats); err != nil {
		_ = postJSON(rt.client, primaryURL+"/v1/jobs/"+id+"/promote", map[string]int64{"epoch": newEpoch}, nil)
		rt.mu.Lock()
		route.epoch = newEpoch
		rt.mu.Unlock()
		return fmt.Errorf("cluster: promoting %s for %q: %w", target, id, err)
	}
	rt.mu.Lock()
	route.primary = target
	route.followers = remove(followers, target)
	route.epoch = newEpoch
	for i := range rt.shards {
		if rt.shards[i].Primary == primary {
			rt.shards[i].Primary = target
			rt.shards[i].Followers = remove(rt.shards[i].Followers, target)
		}
	}
	rt.mu.Unlock()
	// Re-point the remaining followers at the new primary (from-scratch
	// restart, same rationale as failover).
	for _, f := range remove(followers, target) {
		if fURL, err := rt.nodeURL(f); err == nil {
			_ = postJSON(rt.client, fURL+"/v1/replicate/"+id, replicateRequest{Source: targetURL}, nil)
		}
	}
	return nil
}

// quiescePrimary waits until a fenced primary has fitted everything it
// ingested and published the final round, then returns its durable journal
// length — nothing can append after that point: ingestion is fenced and the
// fitter has no pending work left to mark.
func (rt *Router) quiescePrimary(primaryURL, id string) (int64, error) {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		var st serve.JobStats
		if err := getJSON(rt.client, primaryURL+"/v1/jobs/"+id, &st); err != nil {
			return 0, fmt.Errorf("cluster: quiescing %q: %w", id, err)
		}
		if st.Error != "" {
			return 0, fmt.Errorf("cluster: quiescing %q: job failed: %s", id, st.Error)
		}
		if st.FittedAnswers == st.IngestedAnswers && int64(st.SnapshotRound) == st.FitRounds {
			return st.JournalBytes, nil
		}
		if !time.Now().Before(deadline) {
			return 0, fmt.Errorf("cluster: %q did not quiesce (fitted %d of %d)", id, st.FittedAnswers, st.IngestedAnswers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// ClusterInfo is the /clusterz shape.
type ClusterInfo struct {
	Nodes  map[string]NodeInfo `json:"nodes"`
	Shards []ShardSpec         `json:"shards"`
	Jobs   map[string]JobInfo  `json:"jobs"`
}

// NodeInfo is one node's entry in /clusterz.
type NodeInfo struct {
	URL  string `json:"url"`
	Down bool   `json:"down,omitempty"`
}

// JobInfo is one job's routing entry in /clusterz.
type JobInfo struct {
	Shard      int      `json:"shard"`
	Primary    string   `json:"primary"`
	Followers  []string `json:"followers"`
	Epoch      int64    `json:"epoch"`
	AckedBytes int64    `json:"acked_bytes"`
}

// Info snapshots the cluster map.
func (rt *Router) Info() ClusterInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	info := ClusterInfo{
		Nodes:  make(map[string]NodeInfo, len(rt.nodes)),
		Shards: append([]ShardSpec(nil), rt.shards...),
		Jobs:   make(map[string]JobInfo, len(rt.jobs)),
	}
	for name, ns := range rt.nodes {
		info.Nodes[name] = NodeInfo{URL: ns.url, Down: ns.down}
	}
	for id, route := range rt.jobs {
		info.Jobs[id] = JobInfo{
			Shard:      route.shard,
			Primary:    route.primary,
			Followers:  append([]string(nil), route.followers...),
			Epoch:      route.epoch,
			AckedBytes: route.acked,
		}
	}
	return info
}

func (rt *Router) handleClusterz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Info())
}

// RouterJobStats is one job's replication view in the router /statsz:
// the primary's serving stats next to every follower's shipping state.
type RouterJobStats struct {
	ID       string          `json:"id"`
	Primary  string          `json:"primary"`
	Epoch    int64           `json:"epoch"`
	Stats    *serve.JobStats `json:"stats,omitempty"`
	Replicas []RouterReplica `json:"replicas"`
	Error    string          `json:"error,omitempty"`
}

// RouterReplica pairs a follower node name with its replication state.
type RouterReplica struct {
	Node string `json:"node"`
	ReplicaStats
}

func (rt *Router) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.jobs))
	for id := range rt.jobs {
		ids = append(ids, id)
	}
	rt.mu.Unlock()
	sort.Strings(ids)
	out := make([]RouterJobStats, 0, len(ids))
	for _, id := range ids {
		route, ok := rt.job(id)
		if !ok {
			continue
		}
		primary, primaryURL, followers, epoch, _ := rt.routeView(route)
		js := RouterJobStats{ID: id, Primary: primary, Epoch: epoch, Replicas: []RouterReplica{}}
		var st serve.JobStats
		if err := getJSON(rt.client, primaryURL+"/v1/jobs/"+id, &st); err != nil {
			js.Error = err.Error()
		} else {
			js.Stats = &st
		}
		for _, f := range followers {
			fURL, err := rt.nodeURL(f)
			if err != nil {
				continue
			}
			var rs ReplicaStats
			if err := getJSON(rt.client, fURL+"/v1/replicate/"+id, &rs); err != nil {
				rs = ReplicaStats{ID: id, Error: err.Error()}
			}
			js.Replicas = append(js.Replicas, RouterReplica{Node: f, ReplicaStats: rs})
		}
		out = append(out, js)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

func forwardResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func remove(list []string, s string) []string {
	out := make([]string, 0, len(list))
	for _, v := range list {
		if v != s {
			out = append(out, v)
		}
	}
	return out
}

package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cpa/internal/serve"
)

// Node is one cluster member: a full cpaserve registry (the jobs it owns as
// primary) plus the follower replicas it hosts for jobs owned elsewhere.
// Its HTTP surface is the cpaserve API extended with the replication
// control endpoints the router drives:
//
//	POST   /v1/replicate/{id}          start (or restart) following {"source": url}
//	GET    /v1/replicate/{id}          one replica's shipping state
//	DELETE /v1/replicate/{id}          stop following and discard the staging
//	POST   /v1/replicate/{id}/promote  adopt the replica as primary
//	                                   {"epoch":N,"min_bytes":B,"checkpoint":bool}
//
// Consensus and stats reads on follower jobs are answered from the
// replica's applied snapshot, so any caught-up node can serve reads.
type Node struct {
	name    string
	dataDir string
	reg     *serve.Registry
	srv     *serve.Server
	mux     *http.ServeMux
	client  *http.Client
	sync    bool // cfg.SyncJournal: replica installs are made durable

	mu        sync.Mutex
	followers map[string]*follower
}

// NewNode opens a cluster node over a persistent data directory (required:
// replication is journal shipping; there is nothing to ship without one).
func NewNode(name, dataDir string, cfg serve.Config) (*Node, error) {
	if dataDir == "" {
		return nil, fmt.Errorf("cluster: node %q needs a data dir", name)
	}
	cfg.Dir = dataDir
	reg, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		name:    name,
		dataDir: dataDir,
		reg:     reg,
		srv:     serve.NewServer(reg),
		mux:     http.NewServeMux(),
		client:  &http.Client{Timeout: 30 * time.Second},
		sync:    cfg.SyncJournal,
	}
	n.mux.HandleFunc("POST /v1/replicate/{id}", n.handleReplicate)
	n.mux.HandleFunc("GET /v1/replicate/{id}", n.handleReplicaStats)
	n.mux.HandleFunc("DELETE /v1/replicate/{id}", n.handleReplicaStop)
	n.mux.HandleFunc("POST /v1/replicate/{id}/promote", n.handlePromote)
	// Reads resolve follower replicas when the registry doesn't own the job.
	n.mux.HandleFunc("GET /v1/jobs/{id}/consensus", n.handleConsensus)
	n.mux.HandleFunc("GET /statsz", n.handleStatsz)
	n.mux.Handle("/", n.srv)
	return n, nil
}

// Name returns the node's cluster name.
func (n *Node) Name() string { return n.name }

// Registry exposes the node's serve registry (tests and the loadgen
// harness reach through it for journal paths and crash simulation).
func (n *Node) Registry() *serve.Registry { return n.reg }

// JournalPath returns the on-disk journal of a job this node owns.
func (n *Node) JournalPath(jobID string) string {
	return serve.JournalPath(n.dataDir, jobID)
}

func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Crash simulates a node kill for tests: every owned job stops cold (no
// drain, no checkpoint, journal dropped without close) and every follower
// stops shipping. The node is unusable afterwards.
func (n *Node) Crash() {
	n.reg.CrashAll()
	n.mu.Lock()
	followers := n.followers
	n.followers = nil
	n.mu.Unlock()
	for _, fo := range followers {
		fo.shutdown()
	}
}

// Close shuts the node down cleanly.
func (n *Node) Close() error {
	n.mu.Lock()
	followers := n.followers
	n.followers = nil
	n.mu.Unlock()
	for _, fo := range followers {
		fo.shutdown()
	}
	return n.reg.Close()
}

// replicaDir is the staging tree for follower state, deliberately outside
// the registry's jobs tree so recovery never adopts a half-shipped replica
// as a live job; promotion renames the staging into the jobs tree.
func (n *Node) replicaDir(jobID string) string {
	return filepath.Join(n.dataDir, "replicas", jobID)
}

// Follow starts (or restarts, after a failover re-points the shard)
// replication of jobID from the given source node URL.
func (n *Node) Follow(jobID, source string) error {
	if _, owned := n.reg.Get(jobID); owned {
		return fmt.Errorf("cluster: node %q already owns job %q", n.name, jobID)
	}
	fo, err := startFollower(jobID, source, n.replicaDir(jobID), n.client, n.sync)
	if err != nil {
		return err
	}
	n.mu.Lock()
	prev := n.followers[jobID]
	if n.followers == nil {
		n.followers = make(map[string]*follower)
	}
	n.followers[jobID] = fo
	n.mu.Unlock()
	if prev != nil {
		prev.shutdown()
	}
	return nil
}

func (n *Node) getFollower(jobID string) (*follower, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fo, ok := n.followers[jobID]
	return fo, ok
}

// PromoteReplica turns a hosted follower into the job's primary at the
// given epoch: drain the shipped suffix to minBytes (the fenced primary's
// final durable length on planned handoff; the replica's own offset on
// failover, where nothing more can arrive), optionally fetch the source's
// checkpoint to skip replaying the whole journal, stamp the promotion
// epoch, rename the staging into the jobs tree, and adopt it through the
// standard recovery path. The adopted job's state is bit-for-bit what
// replaying the shipped journal yields.
func (n *Node) PromoteReplica(jobID string, epoch, minBytes int64, fetchCheckpoint bool, drainTimeout time.Duration) (serve.JobStats, error) {
	var zero serve.JobStats
	fo, ok := n.getFollower(jobID)
	if !ok {
		return zero, fmt.Errorf("cluster: node %q hosts no replica of %q", n.name, jobID)
	}
	if err := fo.drainTo(minBytes, drainTimeout); err != nil {
		return zero, err
	}
	fo.shutdown()
	n.mu.Lock()
	delete(n.followers, jobID)
	n.mu.Unlock()

	if fetchCheckpoint {
		if err := n.fetchCheckpoint(fo, jobID); err != nil {
			return zero, err
		}
	}
	if err := serve.WriteEpochState(fo.dir, epoch, false, n.sync); err != nil {
		return zero, err
	}
	jobsDir := filepath.Join(n.dataDir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return zero, fmt.Errorf("cluster: preparing jobs dir: %w", err)
	}
	if err := serve.RenameDurable(fo.dir, filepath.Join(jobsDir, jobID), n.sync); err != nil {
		return zero, fmt.Errorf("cluster: installing promoted replica: %w", err)
	}
	job, err := n.reg.AdoptJob(jobID)
	if err != nil {
		return zero, err
	}
	return job.Stats(), nil
}

// fetchCheckpoint pulls the source's latest model checkpoint into the
// staging dir. A source without a checkpoint yet (404) is fine — adoption
// replays the journal from scratch.
func (n *Node) fetchCheckpoint(fo *follower, jobID string) error {
	resp, err := n.client.Get(fo.source + "/v1/jobs/" + jobID + "/checkpoint")
	if err != nil {
		return fmt.Errorf("cluster: fetching checkpoint: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return readAPIError(resp)
	}
	f, err := os.Create(filepath.Join(fo.dir, serve.CheckpointFileName))
	if err != nil {
		return err
	}
	if _, err := f.ReadFrom(resp.Body); err != nil {
		f.Close()
		return fmt.Errorf("cluster: staging checkpoint: %w", err)
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// HTTP handlers
// ---------------------------------------------------------------------------

type replicateRequest struct {
	Source string `json:"source"`
}

type promoteRequest struct {
	Epoch      int64 `json:"epoch"`
	MinBytes   int64 `json:"min_bytes"`
	Checkpoint bool  `json:"checkpoint"`
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req replicateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Source == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad replicate body: %v", err))
		return
	}
	if err := n.Follow(r.PathValue("id"), req.Source); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	fo, _ := n.getFollower(r.PathValue("id"))
	writeJSON(w, http.StatusCreated, fo.stats())
}

func (n *Node) handleReplicaStats(w http.ResponseWriter, r *http.Request) {
	fo, ok := n.getFollower(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no replica of %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, fo.stats())
}

func (n *Node) handleReplicaStop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n.mu.Lock()
	fo, ok := n.followers[id]
	if ok {
		delete(n.followers, id)
	}
	n.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no replica of %q", id))
		return
	}
	fo.shutdown()
	os.RemoveAll(fo.dir)
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req promoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad promote body: %v", err))
		return
	}
	stats, err := n.PromoteReplica(r.PathValue("id"), req.Epoch, req.MinBytes, req.Checkpoint, 30*time.Second)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleConsensus serves a job's consensus from the registry when this node
// owns it, else from a hosted replica's applied snapshot.
func (n *Node) handleConsensus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, owned := n.reg.Get(id); owned {
		n.srv.ServeHTTP(w, r)
		return
	}
	fo, ok := n.getFollower(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q: not found", id))
		return
	}
	writeJSON(w, http.StatusOK, fo.ap.Snapshot())
}

// NodeStats is the node /statsz shape: the owned jobs' serving stats plus
// every hosted replica's shipping state (per-job replication lag).
type NodeStats struct {
	Node     string           `json:"node"`
	Jobs     []serve.JobStats `json:"jobs"`
	Replicas []ReplicaStats   `json:"replicas"`
}

func (n *Node) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	st := NodeStats{Node: n.name, Replicas: []ReplicaStats{}}
	for _, j := range n.reg.Jobs() {
		st.Jobs = append(st.Jobs, j.Stats())
	}
	n.mu.Lock()
	followers := make([]*follower, 0, len(n.followers))
	for _, fo := range n.followers {
		followers = append(followers, fo)
	}
	n.mu.Unlock()
	for _, fo := range followers {
		st.Replicas = append(st.Replicas, fo.stats())
	}
	writeJSON(w, http.StatusOK, st)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

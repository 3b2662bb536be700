package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/datasets"
	"cpa/internal/serve"
)

// ---------------------------------------------------------------------------
// In-process cluster harness
// ---------------------------------------------------------------------------

type testNode struct {
	node *Node
	ts   *httptest.Server
	dir  string
	cfg  serve.Config
}

type testCluster struct {
	t      *testing.T
	nodes  map[string]*testNode
	router *Router
	rts    *httptest.Server
	client *http.Client
}

// newTestCluster builds nodes and a router per the shard layout, all
// in-process over httptest.
func newTestCluster(t *testing.T, shards []ShardSpec) *testCluster {
	t.Helper()
	cfg := serve.Config{BatchWait: time.Millisecond, SaveEvery: 4}
	tc := &testCluster{t: t, nodes: make(map[string]*testNode), client: &http.Client{Timeout: 60 * time.Second}}
	names := map[string]bool{}
	for _, sh := range shards {
		names[sh.Primary] = true
		for _, f := range sh.Followers {
			names[f] = true
		}
	}
	spec := MapSpec{Nodes: map[string]string{}, Shards: shards}
	for name := range names {
		dir := t.TempDir()
		n, err := NewNode(name, dir, cfg)
		if err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		ts := httptest.NewServer(n)
		tc.nodes[name] = &testNode{node: n, ts: ts, dir: dir, cfg: cfg}
		spec.Nodes[name] = ts.URL
	}
	rt, err := NewRouter(spec)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.rts = httptest.NewServer(rt)
	t.Cleanup(func() {
		tc.rts.Close()
		for _, tn := range tc.nodes {
			tn.ts.Close()
			tn.node.Close()
		}
	})
	return tc
}

// crash hard-kills a node: jobs stop cold, HTTP goes away.
func (tc *testCluster) crash(name string) {
	tn := tc.nodes[name]
	tn.node.Crash()
	tn.ts.CloseClientConnections()
	tn.ts.Close()
}

// revive restarts a crashed node over its surviving data directory on a
// fresh address and tells the router.
func (tc *testCluster) revive(name string) {
	tc.t.Helper()
	tn := tc.nodes[name]
	n, err := NewNode(name, tn.dir, tn.cfg)
	if err != nil {
		tc.t.Fatalf("reviving %s: %v", name, err)
	}
	tn.node = n
	tn.ts = httptest.NewServer(n)
	if err := tc.router.SetNodeURL(name, tn.ts.URL); err != nil {
		tc.t.Fatal(err)
	}
	if err := tc.router.NodeReturned(name); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testCluster) createJob(id string, ds *answers.Dataset, seed int64) {
	tc.t.Helper()
	body, err := json.Marshal(serve.CreateJobRequest{
		ID: id, Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: seed, BatchSize: 64},
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.client.Post(tc.rts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		tc.t.Fatalf("create %s: status %d: %s", id, resp.StatusCode, raw)
	}
}

// sendChunk posts one NDJSON chunk through the router and returns the HTTP
// status (0 on transport error).
func (tc *testCluster) sendChunk(id string, chunk []answers.Answer) int {
	tc.t.Helper()
	var body bytes.Buffer
	for _, a := range chunk {
		line, err := answers.MarshalAnswerJSON(a)
		if err != nil {
			tc.t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	resp, err := tc.client.Post(tc.rts.URL+"/v1/jobs/"+id+"/answers", "application/x-ndjson", &body)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// mustSend acks a chunk, retrying through transient backpressure.
func (tc *testCluster) mustSend(id string, chunk []answers.Answer) {
	tc.t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		switch status := tc.sendChunk(id, chunk); status {
		case http.StatusAccepted:
			return
		case http.StatusTooManyRequests:
			time.Sleep(10 * time.Millisecond)
		default:
			tc.t.Fatalf("send chunk to %s: status %d", id, status)
		}
	}
	tc.t.Fatalf("chunk to %s never acked", id)
}

func (tc *testCluster) consensus(id, replica string) (*serve.Snapshot, int) {
	tc.t.Helper()
	url := tc.rts.URL + "/v1/jobs/" + id + "/consensus"
	if replica != "" {
		url += "?replica=" + replica
	}
	resp, err := tc.client.Get(url)
	if err != nil {
		tc.t.Fatalf("GET consensus: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		tc.t.Fatalf("decoding consensus: %v", err)
	}
	return &snap, resp.StatusCode
}

// quiesce waits until the job's primary has fitted and published everything
// and every follower has applied the primary's full durable journal.
func (tc *testCluster) quiesce(id string) serve.JobStats {
	tc.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st serve.JobStats
		err := getJSON(tc.client, tc.rts.URL+"/v1/jobs/"+id, &st)
		if err == nil && st.Error == "" &&
			st.FittedAnswers == st.IngestedAnswers && int64(st.SnapshotRound) == st.FitRounds {
			if tc.followersCaughtUp(id, st.JournalBytes) {
				return st
			}
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("job %s never quiesced (stats %+v, err %v)", id, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (tc *testCluster) followersCaughtUp(id string, target int64) bool {
	info := tc.router.Info()
	job, ok := info.Jobs[id]
	if !ok {
		return false
	}
	for _, f := range job.Followers {
		var st ReplicaStats
		if err := getJSON(tc.client, tc.nodes[f].ts.URL+"/v1/replicate/"+id, &st); err != nil {
			return false
		}
		if st.AppliedBytes < target {
			return false
		}
	}
	return true
}

// sameSnapshot asserts bit-identical published consensus (CreatedAt and
// the encoding cache excluded — they are per-process).
func sameSnapshot(t *testing.T, want, got *serve.Snapshot) {
	t.Helper()
	if got.Round != want.Round || got.Answers != want.Answers {
		t.Fatalf("snapshot at round=%d answers=%d, want round=%d answers=%d",
			got.Round, got.Answers, want.Round, want.Answers)
	}
	if !reflect.DeepEqual(got.Consensus, want.Consensus) {
		for i := range want.Consensus {
			if i < len(got.Consensus) && !reflect.DeepEqual(got.Consensus[i], want.Consensus[i]) {
				t.Fatalf("item %d diverged:\nwant %+v\ngot  %+v", i, want.Consensus[i], got.Consensus[i])
			}
		}
		t.Fatalf("consensus diverged")
	}
}

// replayOwnerJournal rebuilds the owner's journal through a fresh Applier —
// the strongest served-equals-replay form for a promoted owner.
func replayOwnerJournal(t *testing.T, tc *testCluster, id string) *serve.Snapshot {
	t.Helper()
	info := tc.router.Info()
	owner := info.Jobs[id].Primary
	tn := tc.nodes[owner]
	job, ok := tn.node.Registry().Get(id)
	if !ok {
		t.Fatalf("owner %s does not hold job %s", owner, id)
	}
	ap, err := serve.NewApplier(job.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.ReadJournal(tn.node.JournalPath(id), ap.Apply); err != nil {
		t.Fatalf("replaying owner journal: %v", err)
	}
	return ap.Snapshot()
}

// countAnswers keys a multiset of answers for acked-durable containment.
func countAnswers(list []answers.Answer) map[string]int {
	m := make(map[string]int, len(list))
	for _, a := range list {
		m[fmt.Sprintf("%d|%d|%v", a.Item, a.Worker, a.Labels.Slice())] += 1
	}
	return m
}

func testDataset(t *testing.T, scale float64, seed int64) *answers.Dataset {
	t.Helper()
	ds, _, err := datasets.Load("image", scale, seed)
	if err != nil {
		t.Fatalf("loading profile: %v", err)
	}
	return ds
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

func TestShardForStableAndSpread(t *testing.T) {
	hits := make([]int, 4)
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("job-%d", i)
		s := ShardFor(id, 4)
		if s2 := ShardFor(id, 4); s2 != s {
			t.Fatalf("ShardFor not deterministic: %d vs %d", s, s2)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d got no jobs in 400 placements: %v", s, hits)
		}
	}
	// Growing the shard count must only move jobs onto the new shard.
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("job-%d", i)
		before, after := ShardFor(id, 4), ShardFor(id, 5)
		if before != after && after != 4 {
			t.Fatalf("job %s moved %d→%d when shard 4 was added", id, before, after)
		}
	}
}

// TestReplicationBitIdentical is the tentpole acceptance test at cluster
// level: a follower tailing the primary's journal serves — through the
// router — the exact consensus the primary serves, at quiesce.
func TestReplicationBitIdentical(t *testing.T) {
	tc := newTestCluster(t, []ShardSpec{{Primary: "a", Followers: []string{"b"}}})
	ds := testDataset(t, 0.04, 21)
	tc.createJob("rep", ds, 21)
	all := ds.Answers()
	for start := 0; start < len(all); start += 48 {
		tc.mustSend("rep", all[start:min(start+48, len(all))])
	}
	tc.quiesce("rep")

	primarySnap, status := tc.consensus("rep", "")
	if status != http.StatusOK {
		t.Fatalf("primary consensus: status %d", status)
	}
	if primarySnap.Answers != len(all) {
		t.Fatalf("primary snapshot covers %d answers, want %d", primarySnap.Answers, len(all))
	}
	followerSnap, status := tc.consensus("rep", "b")
	if status != http.StatusOK {
		t.Fatalf("follower consensus: status %d", status)
	}
	sameSnapshot(t, primarySnap, followerSnap)

	// The node /statsz exposes the replication lag satellite field.
	var ns NodeStats
	if err := getJSON(tc.client, tc.nodes["b"].ts.URL+"/statsz", &ns); err != nil {
		t.Fatal(err)
	}
	if len(ns.Replicas) != 1 || ns.Replicas[0].ID != "rep" {
		t.Fatalf("follower statsz replicas = %+v", ns.Replicas)
	}
	if ns.Replicas[0].LagBytes != 0 {
		t.Fatalf("lag at quiesce = %d, want 0", ns.Replicas[0].LagBytes)
	}
}

// TestFailoverPromotesMostCaughtUp kills the primary mid-stream and checks
// the acceptance criteria: no acked answer lost (all acked answers are in
// the promoted owner's journal), and the served consensus is exactly the
// replay of that journal.
func TestFailoverPromotesMostCaughtUp(t *testing.T) {
	tc := newTestCluster(t, []ShardSpec{{Primary: "a", Followers: []string{"b"}}})
	ds := testDataset(t, 0.04, 23)
	tc.createJob("fo", ds, 23)
	all := ds.Answers()
	var acked []answers.Answer

	half := len(all) / 2
	for start := 0; start < half; start += 48 {
		chunk := all[start:min(start+48, half)]
		tc.mustSend("fo", chunk)
		acked = append(acked, chunk...)
	}
	tc.crash("a")

	// The next write fails over and reports 502; the client-side retry then
	// lands on the promoted follower.
	sent := false
	for attempt := 0; attempt < 50 && !sent; attempt++ {
		chunk := all[half:min(half+48, len(all))]
		switch status := tc.sendChunk("fo", chunk); status {
		case http.StatusAccepted:
			acked = append(acked, chunk...)
			sent = true
		case http.StatusBadGateway, http.StatusTooManyRequests, 0:
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("post-crash send: status %d", status)
		}
	}
	if !sent {
		t.Fatal("ingestion never recovered after primary crash")
	}
	for start := half + 48; start < len(all); start += 48 {
		chunk := all[start:min(start+48, len(all))]
		tc.mustSend("fo", chunk)
		acked = append(acked, chunk...)
	}

	info := tc.router.Info()
	job := info.Jobs["fo"]
	if job.Primary != "b" || job.Epoch != 1 {
		t.Fatalf("after failover: primary=%s epoch=%d, want b/1", job.Primary, job.Epoch)
	}
	tc.quiesce("fo")

	// Acked-durable: every acked answer appears in the promoted owner's
	// journal (≥ its acked multiplicity — a racing resend may double-land).
	var journaled []answers.Answer
	if err := serve.ReadJournal(tc.nodes["b"].node.JournalPath("fo"), func(e serve.JournalEntry) error {
		if e.Answer != nil {
			journaled = append(journaled, *e.Answer)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	have := countAnswers(journaled)
	for key, n := range countAnswers(acked) {
		if have[key] < n {
			t.Fatalf("acked answer %s: %d acked but %d journaled on promoted owner", key, n, have[key])
		}
	}

	// Served-equals-replay on the promoted owner, through the router.
	snap, status := tc.consensus("fo", "")
	if status != http.StatusOK {
		t.Fatalf("consensus after failover: status %d", status)
	}
	sameSnapshot(t, replayOwnerJournal(t, tc, "fo"), snap)
}

// TestPlannedHandoff transfers ownership under live ingestion: every write
// succeeds (the gate parks them during the transfer), no acked answer is
// lost, the old primary is fenced, and its stale replica path is refused by
// the router.
func TestPlannedHandoff(t *testing.T) {
	tc := newTestCluster(t, []ShardSpec{{Primary: "a", Followers: []string{"b"}}})
	ds := testDataset(t, 0.04, 29)
	tc.createJob("ho", ds, 29)
	all := ds.Answers()

	// Live ingestion in the background while the handoff runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for start := 0; start < len(all); start += 48 {
			tc.mustSend("ho", all[start:min(start+48, len(all))])
		}
	}()
	time.Sleep(30 * time.Millisecond) // let some chunks land pre-handoff
	if err := tc.router.Handoff("ho", "b"); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	<-done

	info := tc.router.Info()
	job := info.Jobs["ho"]
	if job.Primary != "b" || job.Epoch != 1 {
		t.Fatalf("after handoff: primary=%s epoch=%d, want b/1", job.Primary, job.Epoch)
	}
	tc.quiesce("ho")

	// All answers landed despite the mid-stream ownership change.
	var st serve.JobStats
	if err := getJSON(tc.client, tc.rts.URL+"/v1/jobs/ho", &st); err != nil {
		t.Fatal(err)
	}
	if st.IngestedAnswers != int64(len(all)) {
		t.Fatalf("owner ingested %d answers, want %d", st.IngestedAnswers, len(all))
	}
	snap, status := tc.consensus("ho", "")
	if status != http.StatusOK {
		t.Fatalf("consensus after handoff: status %d", status)
	}
	sameSnapshot(t, replayOwnerJournal(t, tc, "ho"), snap)

	// The deposed primary 409s direct ingestion...
	resp, err := tc.client.Post(tc.nodes["a"].ts.URL+"/v1/jobs/ho/answers", "application/json",
		bytes.NewReader([]byte(`{"answers":[{"i":0,"u":0,"x":[0]}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed primary ingest: status %d, want 409", resp.StatusCode)
	}
	// ...and its stale snapshots are unreachable through the router.
	if _, status := tc.consensus("ho", "a"); status != http.StatusConflict {
		t.Fatalf("read from deposed ex-primary: status %d, want 409", status)
	}
}

// TestReturnedPrimaryIsFenced revives a killed ex-primary (which recovers
// its journal and would happily serve writes at the stale epoch) and checks
// the router fences it: direct ingestion 409s, and router-stamped writes
// keep flowing to the real owner.
func TestReturnedPrimaryIsFenced(t *testing.T) {
	tc := newTestCluster(t, []ShardSpec{{Primary: "a", Followers: []string{"b"}}})
	ds := testDataset(t, 0.02, 31)
	tc.createJob("zf", ds, 31)
	all := ds.Answers()
	for start := 0; start < len(all)/2; start += 48 {
		tc.mustSend("zf", all[start:min(start+48, len(all)/2)])
	}
	tc.crash("a")
	if err := tc.router.FailoverJob("zf"); err != nil {
		t.Fatalf("failover: %v", err)
	}
	tc.revive("a") // recovery + NodeReturned fencing

	resp, err := tc.client.Post(tc.nodes["a"].ts.URL+"/v1/jobs/zf/answers", "application/json",
		bytes.NewReader([]byte(`{"answers":[{"i":0,"u":0,"x":[0]}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("revived ex-primary accepted direct ingest: status %d, want 409", resp.StatusCode)
	}

	// The cluster keeps serving writes and reads through the new owner.
	tc.mustSend("zf", all[len(all)/2:min(len(all)/2+48, len(all))])
	tc.quiesce("zf")
	if _, status := tc.consensus("zf", ""); status != http.StatusOK {
		t.Fatalf("consensus via router: status %d", status)
	}
}

// TestFollowerResyncsPastTruncatedBaseAhead: a truncated primary's base.gob
// may cover more than its journal's base header records (the cut stops at
// the first uncovered answer, before covered fit markers). A follower that
// resyncs from that primary seeds from the checkpoint, skips the covered
// markers in the shipped suffix, and converges bit-identically instead of
// wedging on the mismatch.
func TestFollowerResyncsPastTruncatedBaseAhead(t *testing.T) {
	cfg := serve.Config{BatchWait: time.Millisecond, SaveEvery: 2, TruncateJournal: true, TruncateMin: 1}
	primary, err := NewNode("p", t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(primary)
	defer func() { pts.Close(); primary.Close() }()
	ds := testDataset(t, 0.04, 23)
	job, err := primary.Registry().Create(serve.JobSpec{
		ID: "ahead", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 23, BatchSize: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One 80-answer ingest queues at once: rounds of 32, 32 and 16, and
	// round 2's checkpoint truncates the journal behind the first 64
	// answers — ahead of both covered fit markers.
	if err := job.Ingest(ds.Answers()[:80]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st := job.Stats(); st.FittedAnswers < 80 || int64(st.SnapshotRound) != st.FitRounds; st = job.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("primary never quiesced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	var hdr serve.JournalEntry
	if err := serve.ReadJournal(primary.JournalPath("ahead"), func(e serve.JournalEntry) error {
		if hdr == (serve.JournalEntry{}) {
			hdr = e
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hdr.Base == nil || hdr.Base.Fits >= 2 {
		t.Fatalf("primary journal base is not behind its checkpoint: %+v", hdr)
	}

	follower, err := NewNode("f", t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.Follow("ahead", pts.URL); err != nil {
		t.Fatal(err)
	}
	fo, _ := follower.getFollower("ahead")
	want, _ := job.JournalOffsets()
	if err := fo.drainTo(want, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, job.Snapshot(), fo.ap.Snapshot())
}

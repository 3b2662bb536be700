package serve

import (
	"testing"
	"time"

	"cpa/internal/core"
)

// TestWorkerTrajectories pins the sampling contract: a served job records
// bounded per-worker reliability rings, plain Stats omits them, and the
// explicit accessor returns monotone rounds capped at the ring length.
func TestWorkerTrajectories(t *testing.T) {
	ds := shuffledStream(t, 0.08, 5)
	spec := JobSpec{
		ID: "traj", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 5, BatchSize: 16, Parallelism: 2},
	}
	reg := mustOpen(t, Config{BatchWait: time.Millisecond})
	defer reg.Close()
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, job, ds.Answers(), 32)
	waitSnapshot(t, job, len(ds.Answers()))

	if st := job.Stats(); st.WorkerTraj != nil {
		t.Fatal("plain Stats must not carry worker trajectories")
	}
	trajs := job.WorkerTrajectories()
	if len(trajs) == 0 {
		t.Fatal("no worker trajectories recorded")
	}
	for _, tr := range trajs {
		if len(tr.Points) == 0 || len(tr.Points) > trajLen {
			t.Fatalf("worker %d ring has %d points, want 1..%d", tr.Worker, len(tr.Points), trajLen)
		}
		for i := 1; i < len(tr.Points); i++ {
			if tr.Points[i].Round <= tr.Points[i-1].Round {
				t.Fatalf("worker %d rounds not increasing: %+v", tr.Worker, tr.Points)
			}
		}
		for _, p := range tr.Points {
			if p.Reliability < 0 || p.Reliability > 1 {
				t.Fatalf("worker %d reliability %f outside [0,1]", tr.Worker, p.Reliability)
			}
		}
	}
}

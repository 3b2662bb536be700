package serve

import (
	"fmt"
	"reflect"
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

// refWorkerTraj is the per-worker ring layout workerTraj replaced, kept as
// the referee of its output: one ring of TrajPoints per worker, each
// repeating the round stamps.
type refWorkerTraj struct {
	rings [][]TrajPoint
}

func (w *refWorkerTraj) maybeRecord(round int64, m *core.Model) {
	if round%trajEvery != 0 {
		return
	}
	for u := range w.rings {
		p := TrajPoint{Round: round, VoteWeight: m.WorkerVoteWeight(u), Reliability: m.WorkerReliability(u)}
		if n := len(w.rings[u]); n > 0 && w.rings[u][n-1].Round == round {
			continue
		}
		if len(w.rings[u]) == trajLen {
			copy(w.rings[u], w.rings[u][1:])
			w.rings[u][trajLen-1] = p
		} else {
			w.rings[u] = append(w.rings[u], p)
		}
	}
}

func (w *refWorkerTraj) trajectories() []WorkerTrajectory {
	out := make([]WorkerTrajectory, 0, len(w.rings))
	for u, ring := range w.rings {
		if len(ring) == 0 {
			continue
		}
		out = append(out, WorkerTrajectory{Worker: u, Points: append([]TrajPoint(nil), ring...)})
	}
	return out
}

// TestWorkerTrajectoryMatchesPerWorkerRings referees the shared-stamp
// layout against the per-worker rings: a model streamed for more than
// trajLen samples, with rounds off the cadence, a republish at an
// already-sampled round and a sample taken before the rates exist, must
// give identical trajectories() after every call.
func TestWorkerTrajectoryMatchesPerWorkerRings(t *testing.T) {
	ds := shuffledStream(t, 0.08, 7)
	m, err := core.NewModel(core.Config{Seed: 7, BatchSize: 8}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		t.Fatal(err)
	}
	got := newWorkerTraj(ds.NumWorkers)
	want := &refWorkerTraj{rings: make([][]TrajPoint, ds.NumWorkers)}
	same := func(what string) {
		t.Helper()
		if g, w := got.trajectories(), want.trajectories(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: trajectories diverged from the per-worker rings:\n got %v\nwant %v", what, g, w)
		}
	}
	same("before any sample")
	batches := ds.Batches(8)
	round, samples, republished := int64(0), 0, false
	for samples <= trajLen+5 {
		if round == 0 {
			// Sampled before the first fit round: vote weights are 0.
			got.maybeRecord(round, m)
			want.maybeRecord(round, m)
			samples++
			same("round 0")
		}
		if err := m.PartialFit(batches[int(round)%len(batches)].Answers); err != nil {
			t.Fatal(err)
		}
		round++
		got.maybeRecord(round, m)
		want.maybeRecord(round, m)
		same(fmt.Sprintf("round %d", round))
		if round%trajEvery == 0 {
			samples++
			if samples == trajLen+2 {
				// A recovery republish: the same round again, after the
				// model moved on, keeps the samples already taken.
				if err := m.PartialFit(batches[0].Answers); err != nil {
					t.Fatal(err)
				}
				got.maybeRecord(round, m)
				want.maybeRecord(round, m)
				same(fmt.Sprintf("republish at round %d", round))
				republished = true
			}
		}
	}
	trajs := got.trajectories()
	if !republished || len(trajs) != ds.NumWorkers || len(trajs[0].Points) != trajLen {
		t.Fatalf("republished %v, %d trajectories of %d points: the referee did not wrap the rings", republished, len(trajs), len(trajs[0].Points))
	}
	if trajs[0].Points[0].Round == 0 {
		t.Fatal("the oldest sample was not overwritten")
	}
}

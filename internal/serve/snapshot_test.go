package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cpa/internal/core"
	"cpa/internal/datasets"
)

// legacySnapshot, legacyItem and legacyCandidate are the wire shapes of a
// snapshot from when serve copied every published item out of the core
// view into entries of its own.
type legacySnapshot struct {
	JobID   string `json:"job_id"`
	Round   int    `json:"round"`
	Answers int    `json:"answers"`
	Items   int    `json:"items"`
	Workers int    `json:"workers"`
	Labels  int    `json:"labels"`

	EffectiveCommunities int `json:"effective_communities"`
	EffectiveClusters    int `json:"effective_clusters"`

	CreatedAt time.Time `json:"created_at"`

	Consensus []legacyItem `json:"consensus"`
}

type legacyItem struct {
	Item       int               `json:"item"`
	Labels     []int             `json:"labels"`
	Candidates []legacyCandidate `json:"candidates,omitempty"`
}

type legacyCandidate struct {
	Label      int     `json:"label"`
	Confidence float64 `json:"confidence"`
}

// legacyBody encodes a view the way the copying publisher did.
func legacyBody(t *testing.T, jobID string, view *core.ConsensusView, now time.Time) []byte {
	t.Helper()
	s := legacySnapshot{
		JobID:                jobID,
		Round:                view.Stats.BatchRounds,
		Answers:              view.Stats.Answers,
		Items:                view.Stats.Items,
		Workers:              view.Stats.Workers,
		Labels:               view.Stats.Labels,
		EffectiveCommunities: view.Stats.EffectiveCommunities,
		EffectiveClusters:    view.Stats.EffectiveClusters,
		CreatedAt:            now,
		Consensus:            make([]legacyItem, len(view.Items)),
	}
	for i, it := range view.Items {
		li := legacyItem{Item: i, Labels: it.Labels}
		if len(it.Candidates) > 0 {
			li.Candidates = make([]legacyCandidate, len(it.Candidates))
			for k, c := range it.Candidates {
				li.Candidates[k] = legacyCandidate{Label: c.Label, Confidence: c.Confidence}
			}
		}
		s.Consensus[i] = li
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestSnapshotJSONMatchesLegacyShape referees the wire format of snapshots
// whose consensus is the core view's own entries: on topic and image
// streams, over full, incremental and window-compacting rounds, every body
// is byte-identical to the copying publisher's encoding — items with no
// candidates included — and decodes back into an equal Snapshot.
func TestSnapshotJSONMatchesLegacyShape(t *testing.T) {
	for _, profile := range []string{"topic", "image"} {
		t.Run(profile, func(t *testing.T) {
			ds, _, err := datasets.Load(profile, 0.08, 29)
			if err != nil {
				t.Fatal(err)
			}
			ds = ds.Shuffled(rand.New(rand.NewSource(29)))
			cfg := core.Config{Seed: 29, BatchSize: 64, AnswerWindow: 256}
			m, err := core.NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			pub := core.NewPublisher(m)
			now := time.Unix(1700000000, 123456789).UTC()
			full, inc, compactions, bare, voted := 0, 0, 0, 0, 0
			for round, b := range ds.Batches(cfg.BatchSize) {
				retained := m.NumAnswers()
				if err := m.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				if m.NumAnswers() < retained {
					compactions++
				}
				view, dirty, err := pub.Publish(round%3 == 0)
				if err != nil {
					t.Fatal(err)
				}
				if dirty == nil {
					full++
				} else {
					inc++
				}
				for _, it := range view.Items {
					if len(it.Candidates) == 0 {
						bare++
					} else {
						voted++
					}
				}
				snap := nextSnapshot("wire", view, now)
				body, err := snap.encodedBody()
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("round %d (full=%v)", round, dirty == nil)
				if want := legacyBody(t, "wire", view, now); !bytes.Equal(body, want) {
					t.Fatalf("%s: body differs from the copying publisher's encoding:\n got %.300s\nwant %.300s", what, body, want)
				}
				var got Snapshot
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				want := *snap
				want.enc = nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: decoded snapshot differs from the published one", what)
				}
			}
			if full < 3 || inc < 3 || compactions < 2 || bare == 0 || voted == 0 {
				t.Fatalf("%d full and %d incremental rounds, %d compactions, %d bare and %d voted entries: too few to referee the format",
					full, inc, compactions, bare, voted)
			}
		})
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"cpa/internal/answers"
)

// TestModelGobGolden pins the bytes Save writes. Image and topic crowds
// stream through a compacting AnswerWindow with a full publication every
// third round and an incremental one otherwise, with every seventh item's
// truth revealed; the model is saved mid-stream, reloaded, streamed on and
// saved again. Both files must match SHA-256s recorded from the []int
// voted lists and (item, idx) arrival index that preceded the bitset and
// item-id layouts, and the reloaded model must save the bytes it loaded.
func TestModelGobGolden(t *testing.T) {
	for _, tc := range []struct {
		profile  string
		mid, end string
	}{
		{"image", gobGolden["image/mid"], gobGolden["image/end"]},
		{"topic", gobGolden["topic/mid"], gobGolden["topic/end"]},
	} {
		t.Run(tc.profile, func(t *testing.T) {
			ds := loadShuffled(t, tc.profile, 0.08, 23)
			cfg := Config{Seed: 23, BatchSize: 48, AnswerWindow: 128}
			m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ds.NumItems; i += 7 {
				if truth, ok := ds.Truth(i); ok {
					m.revealedTruth[i] = truth.Slice()
				}
			}
			batches := ds.Batches(cfg.BatchSize)
			half := len(batches) / 2
			stream := func(m *Model, bs []answers.Batch, first int) (compactions int) {
				t.Helper()
				pub := NewPublisher(m)
				for k, b := range bs {
					intern := m.intern
					if err := m.PartialFit(b.Answers); err != nil {
						t.Fatal(err)
					}
					if m.intern != intern {
						compactions++
					}
					if _, _, err := pub.Publish((first+k)%3 == 0); err != nil {
						t.Fatal(err)
					}
				}
				return compactions
			}
			save := func(m *Model) []byte {
				t.Helper()
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if n := stream(m, batches[:half], 0); n < 2 {
				t.Fatalf("first half compacted %d times, want at least 2", n)
			}
			mid := save(m)
			re, err := Load(bytes.NewReader(mid))
			if err != nil {
				t.Fatal(err)
			}
			if again := save(re); !bytes.Equal(again, mid) {
				t.Fatal("the reloaded model saves other bytes than it loaded")
			}
			if n := stream(re, batches[half:], half); n < 2 {
				t.Fatalf("second half compacted %d times, want at least 2", n)
			}
			end := save(re)
			gotMid, gotEnd := fmt.Sprintf("%x", sha256.Sum256(mid)), fmt.Sprintf("%x", sha256.Sum256(end))
			t.Logf("%d batches; mid %d bytes sha256 %s; end %d bytes sha256 %s", len(batches), len(mid), gotMid, len(end), gotEnd)
			if gotMid != tc.mid || gotEnd != tc.end {
				t.Fatalf("model.gob sha256 mid %s end %s, want %s and %s", gotMid, gotEnd, tc.mid, tc.end)
			}
		})
	}
}

// gobGolden holds TestModelGobGolden's SHA-256s (identical on the avx2 and
// scalar kernels).
var gobGolden = map[string]string{
	"image/mid": "48b14f8fcf11670d6e2f860801f9fef54e7b9ddb7c1d46325df661d4bcecd94c",
	"image/end": "a76588bfa81cbfdacb08ad62a129585a30881269cdcd3f6a49069b55df8aa13f",
	"topic/mid": "e5e120b6cd0125a06c0469b8b0331215e4b24507e3d4917596da670ca4e5c4e8",
	"topic/end": "0133beb40a455ccda5be6dc0e84620ffbfb76d4de6633f34e5809df6ef8b859c",
}

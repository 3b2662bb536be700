package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/labelset"
)

// jsonAnswerPtr builds a *answers.JSONAnswer for a journal answer line.
func jsonAnswerPtr(item, worker int, labels ...int) *answers.JSONAnswer {
	ja := answers.ToJSON(answers.Answer{Item: item, Worker: worker, Labels: labelset.Of(labels...)})
	return &ja
}

// codecLines enumerates journal lines across every op, the omitempty edges,
// integer extremes, and op strings that exercise each escaping branch of the
// string encoder. The writer never emits most of these — the point is that
// the hand encoder must equal json.Marshal on the whole struct domain, not
// just the happy path, so the frozen-format claim has no untested corner.
func codecLines() []journalLine {
	denseLabels := make([]int, 0, 1000)
	for c := 0; c < 1000; c++ {
		denseLabels = append(denseLabels, c)
	}
	return []journalLine{
		{Op: opRestart},
		{Op: opAnswer, Ans: jsonAnswerPtr(0, 0, 0)},
		{Op: opAnswer, Ans: jsonAnswerPtr(7, 3, 1, 4, 5)},
		{Op: opAnswer, Ans: jsonAnswerPtr(math.MaxInt32, math.MaxInt32, 1023)},
		{Op: opAnswer, Ans: jsonAnswerPtr(1, 2, denseLabels...)},
		{Op: opAnswer, Ans: jsonAnswerPtr(-4, -9, 63, 64, 65)},
		{Op: opAnswer, Ans: &answers.JSONAnswer{Item: 1, Worker: 2}}, // empty label set
		{Op: opFit, N: 1, Mode: pubModeFull},
		{Op: opFit, N: 512, Mode: pubModeInc},
		{Op: opFit, N: 3},  // legacy marker: no pub field
		{Op: opFit, N: -8}, // never written; format must still round-trip
		{Op: opFit, N: math.MaxInt64, Mode: pubModeFull},
		{Op: opFit, N: math.MinInt64, Mode: pubModeInc},
		{Op: opBase, Base: &JournalBase{}},
		{Op: opBase, Base: &JournalBase{Bytes: 1 << 40, Recs: 12345, Ans: 12000, Fits: 345, Covered: 11990}},
		{Op: opBase, Base: &JournalBase{Bytes: -1, Recs: math.MinInt64, Ans: math.MaxInt64, Fits: -7, Covered: 0}},
		{Op: ""},
		{Op: "with\"quote\\and\\backslash"},
		{Op: "html<>&chars"},
		{Op: "ctrl\n\r\t\x00\x1f"},
		{Op: "unicode é ☃ 🚀"},
		{Op: "seps\u2028and\u2029"},
		{Op: "torn\xffutf8\xc3"},
		{Op: "mix<\u2028\"\xff>\t&"},
		// Cross-field combinations json.Marshal happily emits even though the
		// journal writer never does.
		{Op: opFit, N: 2, Mode: pubModeFull, Base: &JournalBase{Fits: 8}},
		{Op: "all", Ans: jsonAnswerPtr(1, 2, 3), N: 4, Mode: "x", Base: &JournalBase{Bytes: 5}},
	}
}

func journalLinesEqual(a, b journalLine) bool {
	if a.Op != b.Op || a.N != b.N || a.Mode != b.Mode {
		return false
	}
	if (a.Ans == nil) != (b.Ans == nil) {
		return false
	}
	if a.Ans != nil {
		if a.Ans.Item != b.Ans.Item || a.Ans.Worker != b.Ans.Worker || !a.Ans.Labels.Equal(b.Ans.Labels) {
			return false
		}
	}
	if (a.Base == nil) != (b.Base == nil) {
		return false
	}
	if a.Base != nil && *a.Base != *b.Base {
		return false
	}
	return true
}

// TestJournalLineEncodeEquivalence pins the frozen byte format: the hand
// encoder must produce exactly json.Marshal's bytes for every line shape.
func TestJournalLineEncodeEquivalence(t *testing.T) {
	for _, line := range codecLines() {
		want, err := json.Marshal(line)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", line, err)
		}
		got := appendJournalLine(nil, line)
		if !bytes.Equal(got, want) {
			t.Errorf("encode mismatch for %+v:\n hand: %s\n json: %s", line, got, want)
		}
	}
}

// TestAnswerLineEncodeEquivalence pins the per-answer journal record (the
// EncodeAnswerLines building block) against the json.Marshal composition the
// old writer used.
func TestAnswerLineEncodeEquivalence(t *testing.T) {
	batch := []answers.Answer{
		{Item: 0, Worker: 0, Labels: labelset.Of(0)},
		{Item: 12, Worker: 99, Labels: labelset.Of(2, 64, 700)},
		{Item: math.MaxInt32, Worker: 1, Labels: labelset.Of(1023)},
	}
	var want []byte
	for _, a := range batch {
		ja := answers.ToJSON(a)
		raw, err := json.Marshal(journalLine{Op: opAnswer, Ans: &ja})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw...)
		want = append(want, '\n')
	}
	got := EncodeAnswerLines(nil, batch)
	if !bytes.Equal(got, want) {
		t.Errorf("batch encode mismatch:\n hand: %s\n json: %s", got, want)
	}
}

// decodeEquivalent asserts the hand decoder and json.Unmarshal agree on raw:
// same accept/reject verdict and, on accept, the same decoded line.
func decodeEquivalent(t *testing.T, raw []byte) {
	t.Helper()
	var want journalLine
	werr := json.Unmarshal(raw, &want)
	got, gerr := decodeJournalLine(raw, nil)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode verdict mismatch on %q: hand err=%v, json err=%v", raw, gerr, werr)
	}
	if werr == nil && !journalLinesEqual(got, want) {
		t.Fatalf("decode value mismatch on %q:\n hand: %+v\n json: %+v", raw, got, want)
	}
}

// TestJournalLineDecodeEquivalence covers canonical bytes (which must take
// the fast path and agree), non-canonical-but-valid JSON (whitespace,
// reordered fields, floats, escapes — must fall back and agree), and
// malformed inputs (must fail on both paths).
func TestJournalLineDecodeEquivalence(t *testing.T) {
	var raws [][]byte
	for _, line := range codecLines() {
		raw, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	for _, s := range []string{
		// Valid JSON the writer never emits.
		`{"op":"fit","pub":"full","n":3}`,
		`{ "op" : "ans" , "a" : { "i" : 1 , "u" : 2 , "x" : [ 3 ] } }`,
		`{"op":"fit","n":3.0}`,
		`{"op":"fit","n":1e2}`,
		`{"op":"\u0061ns","a":{"i":1,"u":2,"x":[0]}}`,
		`{"op":"ans","a":{"i":1,"u":2,"x":null}}`,
		`{"op":"ans","a":null}`,
		`{"op":"fit","n":0}`,
		`{"op":"fit","n":-1}`,
		`{"op":"fit","n":1,"n":2}`,
		`{"OP":"fit","N":3}`, // stdlib matches field names case-insensitively
		`{"op":"restart","unknown_field":1}`,
		`{"op":"restart"} `,
		` {"op":"restart"}`,
		`{}`,
		`null`,
		`{"op":"ans","a":{"i":1,"u":2,"x":[99999]}}`, // past the fast path's word cap
		// Malformed.
		`{"op":"fit","n":007}`,
		`{"op":"fit"`,
		`{"op":"ans","a":{"i":1,"u":2,"x":[18446744073709551616]}}`,
		`{"op":"ans","a":{"i":1,"u":2,"x":[-3]}}`,
		`[]`,
		``,
		`{"op":fit}`,
		"{\"op\":\"a\nb\"}",
	} {
		raws = append(raws, []byte(s))
	}
	for _, s := range legacyTuneLines {
		raws = append(raws, []byte(s))
	}
	for _, raw := range raws {
		decodeEquivalent(t, raw)
	}
}

// legacyTuneLines are tune records as older daemons journaled them between
// fit rounds, plus the zero-valued edge.
var legacyTuneLines = []string{
	`{"op":"tune","par":4,"bs":512}`,
	`{"op":"tune","par":-1,"bs":9223372036854775807}`,
	`{"op":"tune","par":0,"bs":0}`,
}

// TestLegacyTuneLinesAreInert pins downgrade tolerance for old journals: a
// tune line, and every torn prefix of one, decodes exactly as
// json.Unmarshal does, and a whole line becomes a bare op that replays as
// nothing.
func TestLegacyTuneLinesAreInert(t *testing.T) {
	for _, s := range legacyTuneLines {
		raw := []byte(s)
		for cut := 0; cut <= len(raw); cut++ {
			decodeEquivalent(t, raw[:cut])
		}
		line, err := decodeJournalLine(raw, nil)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !journalLinesEqual(line, journalLine{Op: "tune"}) {
			t.Fatalf("%s decoded to %+v, want a bare tune op", s, line)
		}
		if e := line.entry(nil); e != (JournalEntry{}) {
			t.Fatalf("%s replays as %+v, want an inert entry", s, e)
		}
	}
}

// TestJournalLineTornPrefixParity feeds every byte-prefix of canonical lines
// through both decoders: torn-tail handling (recovery, shipped-stream ends)
// classifies records by decode success, so the fast path must reject exactly
// the prefixes json.Unmarshal rejects.
func TestJournalLineTornPrefixParity(t *testing.T) {
	for _, line := range codecLines() {
		raw, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(raw); cut++ {
			decodeEquivalent(t, raw[:cut])
		}
	}
}

// TestDecodeNDJSONEquivalence pins the fast NDJSON splitter against
// answers.DecodeJSONL: same answers in the same order, same error (string
// included — the "line %d:" prefix is part of the HTTP contract).
func TestDecodeNDJSONEquivalence(t *testing.T) {
	bodies := []string{
		"",
		"\n",
		"\r\n",
		`{"i":1,"u":2,"x":[3]}` + "\n",
		`{"i":1,"u":2,"x":[3]}`, // no trailing newline
		"{\"i\":1,\"u\":2,\"x\":[3]}\r\n{\"i\":4,\"u\":5,\"x\":[6,7]}\n",
		"\n\n{\"i\":1,\"u\":2,\"x\":[]}\n\n",
		"junk\n",
		`{"i":1,"u":2,"x":[3]}` + "\njunk\n",
		`{"u":2,"i":1,"x":[3]}` + "\n", // reordered: fallback, still one answer
		`{"i":1.5,"u":2,"x":[3]}` + "\n",
		`{"i":1,"u":2,"x":[3],"extra":9}` + "\n",
		"{\"i\":1,\"u\":2,\"x\":[3]}\r\n",
	}
	for _, body := range bodies {
		var got, want []answers.Answer
		gerr := DecodeNDJSON([]byte(body), &labelset.Arena{}, func(a answers.Answer) error {
			got = append(got, a)
			return nil
		})
		werr := answers.DecodeJSONL(strings.NewReader(body), func(a answers.Answer) error {
			want = append(want, a)
			return nil
		})
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("verdict mismatch on %q: fast err=%v, scanner err=%v", body, gerr, werr)
		}
		if gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("error text mismatch on %q:\n fast:    %v\n scanner: %v", body, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("answer count mismatch on %q: fast %d, scanner %d", body, len(got), len(want))
		}
		for i := range got {
			if got[i].Item != want[i].Item || got[i].Worker != want[i].Worker || !got[i].Labels.Equal(want[i].Labels) {
				t.Fatalf("answer %d mismatch on %q: fast %+v, scanner %+v", i, body, got[i], want[i])
			}
		}
	}
}

// FuzzJournalLineCodec is the equivalence referee for the frozen format:
// for arbitrary bytes the hand decoder must agree with encoding/json on
// accept/reject and value, and for every accepted value the hand encoder
// must re-emit exactly json.Marshal's bytes.
func FuzzJournalLineCodec(f *testing.F) {
	for _, line := range codecLines() {
		raw, err := json.Marshal(line)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"op":"fit","n":3,"pub":"inc"}`))
	f.Add([]byte(`{"op":"ans","a":{"i":1,"u":2,"x":[0,64,128]}}`))
	f.Add([]byte(`{"op":"base","base":{"b":1,"r":2,"a":3,"f":4,"c":5}}`))
	for _, s := range legacyTuneLines {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var want journalLine
		werr := json.Unmarshal(raw, &want)
		got, gerr := decodeJournalLine(raw, nil)
		if werr != nil {
			if gerr == nil {
				t.Fatalf("hand decoder accepted %q, stdlib rejected: %v", raw, werr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("hand decoder rejected %q, stdlib accepted: %v", raw, gerr)
		}
		if !journalLinesEqual(got, want) {
			t.Fatalf("decode value mismatch on %q:\n hand: %+v\n json: %+v", raw, got, want)
		}
		enc := appendJournalLine(nil, got)
		std, err := json.Marshal(want)
		if err != nil {
			return // unencodable value (cannot originate from our writer)
		}
		if !bytes.Equal(enc, std) {
			t.Fatalf("re-encode mismatch for %q:\n hand: %s\n json: %s", raw, enc, std)
		}
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"unicode/utf8"

	"cpa/internal/answers"
	"cpa/internal/labelset"
)

// Zero-allocation journal and NDJSON codec.
//
// The journal's byte format is frozen: replication ships raw byte ranges,
// truncation headers record global byte coordinates, and crash recovery
// truncates torn tails at byte offsets — every one of those addresses the
// exact bytes encoding/json produced since the first release. This file
// removes encoding/json from the ingest hot path without moving a single
// byte: the encoder below is hand-rolled but produces output byte-for-byte
// equal to json.Marshal for journalLine and the NDJSON answer records
// (pinned by the equivalence fuzz suite in jcodec_test.go), and the decoder
// is a strict fast-path parser that only accepts the canonical form — any
// input it cannot prove canonical falls back to encoding/json, so decode
// behaviour (including every error) is equivalent by construction.

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const hexDigits = "0123456789abcdef"

// appendJSONString appends the JSON encoding of s, quotes included,
// replicating encoding/json's default string encoder exactly: the HTML
// characters <, > and & are \u00XX-escaped, control characters use the
// short forms where the stdlib does, invalid UTF-8 becomes U+FFFD, and the
// JS line separators U+2028/U+2029 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendInt appends the decimal encoding of v (what encoding/json emits for
// an int field).
func appendInt(dst []byte, v int64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	if v < 0 {
		dst = append(dst, '-')
		if v == math.MinInt64 {
			return append(dst, "9223372036854775808"...)
		}
		v = -v
	}
	var tmp [19]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, tmp[i:]...)
}

// appendAnswerObj appends the canonical answers.JSONAnswer object:
// {"i":item,"u":worker,"x":[labels...]}.
func appendAnswerObj(dst []byte, item, worker int, labels labelset.Set) []byte {
	dst = append(dst, `{"i":`...)
	dst = appendInt(dst, int64(item))
	dst = append(dst, `,"u":`...)
	dst = appendInt(dst, int64(worker))
	dst = append(dst, `,"x":`...)
	dst = labels.AppendJSON(dst)
	return append(dst, '}')
}

// appendJournalLine appends the wire form of one journal record — exactly
// the bytes json.Marshal(line) produces, including field order and
// omitempty semantics (ints omitted when 0, strings when empty, pointers
// when nil; JournalBase fields carry no omitempty and always emit all
// five).
func appendJournalLine(dst []byte, line journalLine) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendJSONString(dst, line.Op)
	if line.Ans != nil {
		dst = append(dst, `,"a":`...)
		dst = appendAnswerObj(dst, line.Ans.Item, line.Ans.Worker, line.Ans.Labels)
	}
	if line.N != 0 {
		dst = append(dst, `,"n":`...)
		dst = appendInt(dst, int64(line.N))
	}
	if line.Mode != "" {
		dst = append(dst, `,"pub":`...)
		dst = appendJSONString(dst, line.Mode)
	}
	if line.Base != nil {
		dst = append(dst, `,"base":{"b":`...)
		dst = appendInt(dst, line.Base.Bytes)
		dst = append(dst, `,"r":`...)
		dst = appendInt(dst, line.Base.Recs)
		dst = append(dst, `,"a":`...)
		dst = appendInt(dst, line.Base.Ans)
		dst = append(dst, `,"f":`...)
		dst = appendInt(dst, line.Base.Fits)
		dst = append(dst, `,"c":`...)
		dst = appendInt(dst, line.Base.Covered)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendAnswerLine appends one journal answer record with its newline:
// {"op":"ans","a":{...}}\n.
func appendAnswerLine(dst []byte, a answers.Answer) []byte {
	dst = append(dst, `{"op":"ans","a":`...)
	dst = appendAnswerObj(dst, a.Item, a.Worker, a.Labels)
	return append(dst, '}', '\n')
}

// EncodeAnswerLines appends the journal wire form of a batch — one answer
// record per line, newline-terminated — and returns the extended slice. It
// is the exact byte stream the journal commits for the batch; exported for
// the cpabench ingest micro-rows.
func EncodeAnswerLines(dst []byte, batch []answers.Answer) []byte {
	for _, a := range batch {
		dst = appendAnswerLine(dst, a)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// jparseInt parses a canonical JSON integer at raw[i]: optional minus (not
// on zero), no leading zeros, no fraction or exponent. Anything else —
// including values that would overflow int64 — reports ok=false and sends
// the caller to the encoding/json fallback, which reproduces the stdlib's
// exact acceptance and errors.
func jparseInt(raw []byte, i int) (v int64, next int, ok bool) {
	j := i
	neg := false
	if j < len(raw) && raw[j] == '-' {
		neg = true
		j++
	}
	if j >= len(raw) || raw[j] < '0' || raw[j] > '9' {
		return 0, i, false
	}
	if raw[j] == '0' {
		if neg || (j+1 < len(raw) && raw[j+1] >= '0' && raw[j+1] <= '9') {
			return 0, i, false
		}
		return 0, j + 1, true
	}
	for j < len(raw) && raw[j] >= '0' && raw[j] <= '9' {
		d := int64(raw[j] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
		j++
	}
	if neg {
		v = -v
	}
	return v, j, true
}

// jhasPrefix reports whether raw[i:] starts with lit and returns the index
// past it.
func jhasPrefix(raw []byte, i int, lit string) (int, bool) {
	if len(raw)-i < len(lit) {
		return i, false
	}
	for k := 0; k < len(lit); k++ {
		if raw[i+k] != lit[k] {
			return i, false
		}
	}
	return i + len(lit), true
}

// maxFastLabelWords bounds the label-set width the fast decoder handles on
// its stack scratch: labels < 64*maxFastLabelWords. Wider sets (beyond any
// configured vocabulary in practice) fall back to encoding/json.
const maxFastLabelWords = 16

// decodeLabelsFast parses a canonical JSON array of non-negative integers
// at raw[i] into a label set. When arena is non-nil the set's words are
// bump-allocated from it; otherwise they are heap-copied. Negative members,
// non-canonical numbers and labels ≥ 64*maxFastLabelWords report ok=false.
func decodeLabelsFast(raw []byte, i int, arena *labelset.Arena) (ls labelset.Set, next int, ok bool) {
	if i >= len(raw) || raw[i] != '[' {
		return ls, i, false
	}
	i++
	var words [maxFastLabelWords]uint64
	n := 0 // words used
	if i < len(raw) && raw[i] == ']' {
		return ls, i + 1, true
	}
	for {
		v, j, vok := jparseInt(raw, i)
		if !vok || v < 0 || v >= 64*maxFastLabelWords {
			return ls, i, false
		}
		w := int(v / 64)
		words[w] |= 1 << uint(v%64)
		if w+1 > n {
			n = w + 1
		}
		i = j
		if i >= len(raw) {
			return ls, i, false
		}
		switch raw[i] {
		case ',':
			i++
		case ']':
			if arena == nil {
				heap := make([]uint64, n)
				copy(heap, words[:n])
				return labelset.FromWords(heap), i + 1, true
			}
			return arena.Make(words[:n]), i + 1, true
		default:
			return ls, i, false
		}
	}
}

// decodeAnswerObjFast parses a canonical {"i":I,"u":U,"x":[...]} object at
// raw[i]. Field order, spacing and number forms must be exactly what the
// encoder emits; anything else reports ok=false for the stdlib fallback.
func decodeAnswerObjFast(raw []byte, i int, arena *labelset.Arena) (a answers.Answer, next int, ok bool) {
	i, ok = jhasPrefix(raw, i, `{"i":`)
	if !ok {
		return a, i, false
	}
	item, i, ok := jparseInt(raw, i)
	if !ok {
		return a, i, false
	}
	i, ok = jhasPrefix(raw, i, `,"u":`)
	if !ok {
		return a, i, false
	}
	worker, i, ok := jparseInt(raw, i)
	if !ok {
		return a, i, false
	}
	i, ok = jhasPrefix(raw, i, `,"x":`)
	if !ok {
		return a, i, false
	}
	labels, i, ok := decodeLabelsFast(raw, i, arena)
	if !ok {
		return a, i, false
	}
	if i >= len(raw) || raw[i] != '}' {
		return a, i, false
	}
	return answers.Answer{Item: int(item), Worker: int(worker), Labels: labels}, i + 1, true
}

// DecodeAnswerLine decodes one NDJSON answer record. Canonical lines take
// the allocation-free fast path (label words from arena when non-nil);
// everything else — reordered fields, whitespace, floats, escapes — falls
// back to answers.UnmarshalAnswerJSON, so acceptance and errors match the
// stdlib exactly. Exported for the cpabench ingest micro-rows.
func DecodeAnswerLine(raw []byte, arena *labelset.Arena) (answers.Answer, error) {
	if a, next, ok := decodeAnswerObjFast(raw, 0, arena); ok && next == len(raw) {
		return a, nil
	}
	return answers.UnmarshalAnswerJSON(raw)
}

// DecodeNDJSON splits body into newline-separated answer records and calls
// fn for each in order, mirroring answers.DecodeJSONL's semantics exactly:
// blank lines are skipped (but counted), a trailing \r is stripped from
// each line, decoding stops at the first malformed line with a
// "line %d:"-prefixed error, and fn errors abort the scan unchanged.
// Canonical records decode allocation-free through the fast path.
func DecodeNDJSON(body []byte, arena *labelset.Arena, fn func(answers.Answer) error) error {
	line := 0
	for len(body) > 0 {
		raw := body
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			raw, body = body[:nl], body[nl+1:]
		} else {
			body = nil
		}
		line++
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		if len(raw) == 0 {
			continue
		}
		a, err := DecodeAnswerLine(raw, arena)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := fn(a); err != nil {
			return err
		}
	}
	return nil
}

// decodeJournalLineFast parses one complete canonical journal line (no
// trailing newline). It accepts exactly the forms the journal writer emits;
// ok=false sends the caller to the encoding/json fallback. A non-nil arena
// supplies the label-set words for answer lines (bulk replay amortises the
// per-line heap object through it).
func decodeJournalLineFast(raw []byte, arena *labelset.Arena) (journalLine, bool) {
	i, ok := jhasPrefix(raw, 0, `{"op":"`)
	if !ok {
		return journalLine{}, false
	}
	// The op string must be plain ASCII without escapes; anything else is
	// non-canonical (our writers only emit the fixed op constants).
	opStart := i
	for i < len(raw) && raw[i] != '"' {
		b := raw[i]
		if b < 0x20 || b == '\\' || b >= utf8.RuneSelf {
			return journalLine{}, false
		}
		i++
	}
	if i >= len(raw) {
		return journalLine{}, false
	}
	op := string(raw[opStart:i])
	i++
	if i >= len(raw) {
		return journalLine{}, false
	}
	if raw[i] == '}' {
		if i+1 != len(raw) {
			return journalLine{}, false
		}
		return journalLine{Op: op}, true
	}
	if raw[i] != ',' {
		return journalLine{}, false
	}
	switch op {
	case opAnswer:
		i, ok = jhasPrefix(raw, i, `,"a":`)
		if !ok {
			return journalLine{}, false
		}
		a, i, ok := decodeAnswerObjFast(raw, i, arena)
		if !ok || i+1 != len(raw) || raw[i] != '}' {
			return journalLine{}, false
		}
		ja := answers.ToJSON(a)
		return journalLine{Op: op, Ans: &ja}, true
	case opFit:
		i, ok = jhasPrefix(raw, i, `,"n":`)
		if !ok {
			return journalLine{}, false
		}
		n, i, ok := jparseInt(raw, i)
		if !ok || n == 0 {
			return journalLine{}, false
		}
		if i < len(raw) && raw[i] == '}' {
			if i+1 != len(raw) {
				return journalLine{}, false
			}
			return journalLine{Op: op, N: int(n)}, true
		}
		i, ok = jhasPrefix(raw, i, `,"pub":"`)
		if !ok {
			return journalLine{}, false
		}
		var mode string
		switch {
		case jhasPrefixOK(raw, i, `full"}`):
			mode, i = pubModeFull, i+6
		case jhasPrefixOK(raw, i, `inc"}`):
			mode, i = pubModeInc, i+5
		default:
			return journalLine{}, false
		}
		if i != len(raw) {
			return journalLine{}, false
		}
		return journalLine{Op: op, N: int(n), Mode: mode}, true
	case opBase:
		i, ok = jhasPrefix(raw, i, `,"base":{"b":`)
		if !ok {
			return journalLine{}, false
		}
		var b JournalBase
		if b.Bytes, i, ok = jparseInt(raw, i); !ok {
			return journalLine{}, false
		}
		if i, ok = jhasPrefix(raw, i, `,"r":`); !ok {
			return journalLine{}, false
		}
		if b.Recs, i, ok = jparseInt(raw, i); !ok {
			return journalLine{}, false
		}
		if i, ok = jhasPrefix(raw, i, `,"a":`); !ok {
			return journalLine{}, false
		}
		if b.Ans, i, ok = jparseInt(raw, i); !ok {
			return journalLine{}, false
		}
		if i, ok = jhasPrefix(raw, i, `,"f":`); !ok {
			return journalLine{}, false
		}
		if b.Fits, i, ok = jparseInt(raw, i); !ok {
			return journalLine{}, false
		}
		if i, ok = jhasPrefix(raw, i, `,"c":`); !ok {
			return journalLine{}, false
		}
		if b.Covered, i, ok = jparseInt(raw, i); !ok {
			return journalLine{}, false
		}
		if i, ok = jhasPrefix(raw, i, `}}`); !ok || i != len(raw) {
			return journalLine{}, false
		}
		return journalLine{Op: op, Base: &b}, true
	}
	return journalLine{}, false
}

func jhasPrefixOK(raw []byte, i int, lit string) bool {
	_, ok := jhasPrefix(raw, i, lit)
	return ok
}

// decodeJournalLine decodes one complete journal line: the canonical fast
// path when it matches, encoding/json otherwise — so any well-formed line
// decodes exactly as json.Unmarshal would, and any malformed one fails with
// the stdlib's error.
func decodeJournalLine(raw []byte, arena *labelset.Arena) (journalLine, error) {
	if line, ok := decodeJournalLineFast(raw, arena); ok {
		return line, nil
	}
	var line journalLine
	if err := json.Unmarshal(raw, &line); err != nil {
		return journalLine{}, err
	}
	return line, nil
}

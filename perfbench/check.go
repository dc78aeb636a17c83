package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Kind is the type of one result value.
type Kind uint8

const (
	KInt Kind = iota
	KDate
	KFloat
	KChar
)

// Value is one result cell, independent of the engine's datum type.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Row is one result row.
type Row []Value

func vInt(v int64) Value     { return Value{Kind: KInt, I: v} }
func vDate(d int32) Value    { return Value{Kind: KDate, I: int64(d)} }
func vFloat(f float64) Value { return Value{Kind: KFloat, F: f} }
func vChar(s string) Value   { return Value{Kind: KChar, S: s} }

func (v Value) String() string {
	switch v.Kind {
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', 12, 64)
	case KDate:
		y, m, d := types.FromDays(int32(v.I))
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case KChar:
		return v.S
	default:
		return strconv.FormatInt(v.I, 10)
	}
}

func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// Term is one ORDER BY term over a result column.
type Term struct {
	Col  int
	Desc bool
}

// Spec is what a query promises about its result's shape: ORDER BY terms and
// a LIMIT (0 = none).
type Spec struct {
	Order []Term
	Limit int
}

// floatTol is the relative tolerance for float cells: sums reassociated
// across workers and units of transfer legitimately differ in their
// low-order bits.
const floatTol = 1e-6

func floatEq(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= floatTol*math.Max(math.Abs(a), math.Abs(b))
}

// cmpExact orders two values exactly (char bytewise, numbers numerically).
func cmpExact(a, b Value) int {
	switch a.Kind {
	case KChar:
		return strings.Compare(a.S, b.S)
	case KFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	default:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
}

// cmpTol is cmpExact with floats within floatTol treated as equal.
func cmpTol(a, b Value) int {
	if a.Kind == KFloat && floatEq(a.F, b.F) {
		return 0
	}
	return cmpExact(a, b)
}

func cmpOrder(order []Term, a, b Row, cmp func(a, b Value) int) int {
	for _, t := range order {
		c := cmp(a[t.Col], b[t.Col])
		if c == 0 {
			continue
		}
		if t.Desc {
			return -c
		}
		return c
	}
	return 0
}

// sortRows orders rows by the spec's ORDER BY, exactly, keeping ties in
// their input order.
func sortRows(spec Spec, rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool { return cmpOrder(spec.Order, rows[i], rows[j], cmpExact) < 0 })
}

// exactKey concatenates a row's non-float cells: rows can only match when
// their keys are equal.
func exactKey(r Row) string {
	var sb strings.Builder
	for _, v := range r {
		if v.Kind == KFloat {
			continue
		}
		sb.WriteString(v.String())
		sb.WriteByte(0)
	}
	return sb.String()
}

func rowsMatch(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
		if a[i].Kind == KFloat {
			if !floatEq(a[i].F, b[i].F) {
				return false
			}
		} else if cmpExact(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// Check compares an engine result with the oracle's. want is the oracle's
// full result sorted by the spec's ORDER BY, before any LIMIT. A result
// passes when its row count matches, int, date and char cells match exactly,
// float cells match within floatTol, its rows respect the ORDER BY, and a
// LIMIT cut keeps every row ranked strictly before the cut and otherwise
// only rows tied with the cut. The error names the first differing row.
func Check(spec Spec, want, got []Row) error {
	for i := 1; i < len(got); i++ {
		if cmpOrder(spec.Order, got[i-1], got[i], cmpExact) > 0 {
			return fmt.Errorf("rows out of order at row %d: %s before %s", i, got[i-1], got[i])
		}
	}
	n := len(want)
	if spec.Limit > 0 && n > spec.Limit {
		n = spec.Limit
	}
	if len(got) != n {
		return fmt.Errorf("%d rows, want %d%s", len(got), n, firstMissing(want[:n], got))
	}
	// Candidates are the oracle rows that may appear; required ones must.
	cand := want
	required := make([]bool, len(want))
	for i := range required {
		required[i] = true
	}
	if n < len(want) {
		cut := want[n-1]
		cand = nil
		required = required[:0]
		for _, w := range want {
			c := cmpOrder(spec.Order, w, cut, cmpTol)
			if c > 0 {
				continue
			}
			cand = append(cand, w)
			required = append(required, c < 0)
		}
	}
	// Match within exact-key groups, required candidates first.
	groups := map[string][]int{}
	for _, req := range []bool{true, false} {
		for i, w := range cand {
			if required[i] == req {
				k := exactKey(w)
				groups[k] = append(groups[k], i)
			}
		}
	}
	used := make([]bool, len(cand))
	for gi, g := range got {
		matched := false
		for _, ci := range groups[exactKey(g)] {
			if !used[ci] && rowsMatch(cand[ci], g) {
				used[ci], matched = true, true
				break
			}
		}
		if !matched {
			return fmt.Errorf("row %d %s not in oracle result%s", gi, g, nearest(cand, used, g))
		}
	}
	for i, w := range cand {
		if required[i] && !used[i] {
			return fmt.Errorf("oracle row %s missing", w)
		}
	}
	return nil
}

// firstMissing names the first oracle row that has no equal row in got.
func firstMissing(want, got []Row) string {
	used := make([]bool, len(got))
outer:
	for _, w := range want {
		for i, g := range got {
			if !used[i] && rowsMatch(w, g) {
				used[i] = true
				continue outer
			}
		}
		return "; first missing oracle row " + w.String()
	}
	for i, g := range got {
		if !used[i] {
			return "; first extra row " + g.String()
		}
	}
	return ""
}

// nearest names the unused oracle row sharing the most leading cells with g.
func nearest(cand []Row, used []bool, g Row) string {
	best, bestN := -1, -1
	for i, w := range cand {
		if used[i] || len(w) != len(g) {
			continue
		}
		n := 0
		for n < len(w) && w[n].Kind == g[n].Kind && cmpTol(w[n], g[n]) == 0 {
			n++
		}
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		return ""
	}
	return "; nearest oracle row " + cand[best].String()
}

// fromDatums converts engine result rows to oracle values.
func fromDatums(rows [][]types.Datum) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		row := make(Row, len(r))
		for j, d := range r {
			switch d.Ty {
			case types.Float64:
				row[j] = vFloat(d.F)
			case types.Date:
				row[j] = vDate(int32(d.I))
			case types.Char:
				row[j] = vChar(string(types.TrimPad(d.B)))
			default:
				row[j] = vInt(d.I)
			}
		}
		out[i] = row
	}
	return out
}

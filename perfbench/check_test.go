package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// q13Spec is Q13's shape: (c_count, custdist) by custdist desc, c_count desc.
var q13Spec = Spec{Order: []Term{{1, true}, {0, true}}}

func q13Rows() []Row {
	return []Row{
		{vInt(0), vInt(5000)},
		{vInt(13), vInt(1909)},
		{vInt(14), vInt(1700)},
		{vInt(12), vInt(1700)},
		{vInt(11), vInt(900)},
	}
}

// revenueSpec is a Q3-like shape: (key, name, revenue) by revenue desc.
var revenueSpec = Spec{Order: []Term{{2, true}}}

func revenueRows() []Row {
	return []Row{
		{vInt(1), vChar("GERMANY"), vFloat(5123456.789)},
		{vInt(2), vChar("FRANCE"), vFloat(4000000.25)},
		{vInt(3), vChar("FRANCE"), vFloat(4000000.25)},
		{vInt(4), vChar("BRAZIL"), vFloat(1000.5)},
	}
}

func clone(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = append(Row(nil), r...)
	}
	return out
}

func TestCheckRejectsPlantedFaults(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		want  []Row
		plant func([]Row) []Row
		msg   string
	}{
		{"missing row", q13Spec, q13Rows(), func(r []Row) []Row { return append(r[:2], r[3:]...) }, "rows, want"},
		{"count off by one", q13Spec, q13Rows(), func(r []Row) []Row { r[1][1] = vInt(1908); return r }, "13|1908"},
		{"float off by 1e-4", revenueSpec, revenueRows(), func(r []Row) []Row {
			r[0][2] = vFloat(r[0][2].F * (1 + 1e-4))
			return r
		}, "not in oracle"},
		{"rows out of order", q13Spec, q13Rows(), func(r []Row) []Row { r[0], r[1] = r[1], r[0]; return r }, "out of order"},
		{"char differs", revenueSpec, revenueRows(), func(r []Row) []Row { r[3][1] = vChar("BRAZIL "); return r }, "not in oracle"},
	}
	for _, c := range cases {
		err := Check(c.spec, c.want, c.plant(clone(c.want)))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.msg)
		}
	}
}

func TestCheckAcceptsLegalDifferences(t *testing.T) {
	got := clone(revenueRows())
	for _, r := range got {
		r[2] = vFloat(r[2].F * (1 + 1e-12))
	}
	if err := Check(revenueSpec, revenueRows(), got); err != nil {
		t.Errorf("floats perturbed by 1e-12: %v", err)
	}
	got = clone(revenueRows())
	got[1], got[2] = got[2], got[1] // tied on revenue
	if err := Check(revenueSpec, revenueRows(), got); err != nil {
		t.Errorf("rows permuted within ties: %v", err)
	}
	got = clone(q13Rows())
	got[2], got[3] = got[3], got[2] // tied on custdist, not on c_count
	if err := Check(q13Spec, q13Rows(), got); err == nil {
		t.Errorf("rows ordered against the second ORDER BY term accepted")
	}
}

func TestCheckLimitCutIsTieConsistent(t *testing.T) {
	spec := Spec{Order: revenueSpec.Order, Limit: 2}
	want := revenueRows()
	// The cut falls inside the FRANCE tie: either tied row may be kept.
	for _, keep := range []int{1, 2} {
		got := []Row{want[0], want[keep]}
		if err := Check(spec, want, got); err != nil {
			t.Errorf("keeping tied row %d: %v", keep, err)
		}
	}
	// Dropping a row ranked strictly before the cut is wrong.
	if err := Check(spec, want, []Row{want[1], want[2]}); err == nil {
		t.Errorf("LIMIT result without the top row accepted")
	}
	// A row ranked after the cut is wrong.
	if err := Check(spec, want, []Row{want[0], want[3]}); err == nil {
		t.Errorf("LIMIT result with a row past the cut accepted")
	}
}

func TestLike(t *testing.T) {
	for _, c := range []struct {
		s, pat string
		want   bool
	}{
		{"PROMO BRUSHED TIN", "PROMO%", true},
		{"LARGE PROMO TIN", "PROMO%", false},
		{"SMALL PLATED BRASS", "%BRASS", true},
		{"a special b requests c", "%special%requests%", true},
		{"a requests b special c", "%special%requests%", false},
		{"forest green", "forest%", true},
		{"exact", "exact", true},
		{"exactly", "exact", false},
	} {
		if got := like([]byte(c.s), c.pat); got != c.want {
			t.Errorf("like(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

// TestOracleAgreesWithEngine runs every query at a small scale at both ends
// of the UoT spectrum and checks it against the oracle, then plants Q13's
// observed fault into a real result. It runs at one worker: at more, the
// emitter's known row loss (see README.md) would make it flaky.
func TestOracleAgreesWithEngine(t *testing.T) {
	d := tpch.Load(0.01, baseBlockBytes, storage.ColumnStore)
	oracle := Oracle(d)
	for _, q := range tpch.Numbers() {
		a, ok := oracle[q]
		if !ok {
			t.Fatalf("no oracle answer for Q%d", q)
		}
		// At this scale no order exceeds Q18's quantity cut, and Q20 is
		// empty (see README.md, known faults).
		if q != 18 && q != 20 && len(a.Rows) == 0 {
			t.Errorf("Q%d: oracle result is empty", q)
		}
		for _, uot := range []int{1, core.UoTTable} {
			res, err := engine.Execute(tpch.MustBuild(d, q, tpch.QueryOpts{}), engine.Options{Workers: 1, UoTBlocks: uot})
			if err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
			got := fromDatums(engine.Rows(res.Table))
			if err := Check(a.Spec, a.Rows, got); err != nil {
				t.Errorf("Q%d at UoT %d: %v", q, uot, err)
			}
			if q == 13 && uot == 1 {
				got[0][1] = vInt(got[0][1].I - 1)
				if err := Check(a.Spec, a.Rows, got); err == nil {
					t.Errorf("Q13 with a count off by one accepted")
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

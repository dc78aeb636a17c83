package main

// The oracle: all 22 TPC-H queries written as plain loops over the base-table
// blocks. It reads cells through the storage accessors and uses the types
// date helpers, and nothing else of the program: no engine, operator,
// expression, hash-table, aggregation, sort or bloom code, and none of the
// tpch plan builders. Each query's semantics follow its plan in
// internal/tpch (output columns, ORDER BY and LIMIT included).

import (
	"math"
	"strings"

	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Answer is one query's expected result: every row, sorted by Spec.Order,
// before the LIMIT cut.
type Answer struct {
	Spec Spec
	Rows []Row
}

// col is a base-table column reader.
type col struct{ i int }

func colOf(t *storage.Table, name string) col { return col{t.Schema().MustColIndex(name)} }

func (c col) i64(b *storage.Block, r int) int64   { return b.Int64At(c.i, r) }
func (c col) f64(b *storage.Block, r int) float64 { return b.Float64At(c.i, r) }
func (c col) date(b *storage.Block, r int) int32  { return b.DateAt(c.i, r) }

// raw returns the cell's bytes without the fixed-width zero padding.
func (c col) raw(b *storage.Block, r int) []byte {
	v := b.BytesAt(c.i, r)
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	return v[:n]
}

func (c col) str(b *storage.Block, r int) string            { return string(c.raw(b, r)) }
func (c col) is(b *storage.Block, r int, s string) bool     { return string(c.raw(b, r)) == s }
func (c col) like(b *storage.Block, r int, pat string) bool { return like(c.raw(b, r), pat) }

func eachRow(t *storage.Table, fn func(b *storage.Block, r int)) {
	for _, b := range t.Blocks() {
		for r := 0; r < b.NumRows(); r++ {
			fn(b, r)
		}
	}
}

// like matches SQL LIKE with '%' wildcards.
func like(s []byte, pat string) bool {
	parts := strings.Split(pat, "%")
	str := string(s)
	if !strings.HasPrefix(str, parts[0]) {
		return false
	}
	str = str[len(parts[0]):]
	last := len(parts) - 1
	if last == 0 {
		return str == ""
	}
	for _, p := range parts[1:last] {
		i := strings.Index(str, p)
		if i < 0 {
			return false
		}
		str = str[i+len(p):]
	}
	return strings.HasSuffix(str, parts[last])
}

func oneOf(s string, set ...string) bool {
	for _, x := range set {
		if s == x {
			return true
		}
	}
	return false
}

func days(y, m, d int) int32 { return types.ToDays(y, m, d) }

// maxKey returns the largest value of an int column, for key-indexed slices.
func maxKey(t *storage.Table, c col) int64 {
	var m int64
	eachRow(t, func(b *storage.Block, r int) {
		if v := c.i64(b, r); v > m {
			m = v
		}
	})
	return m
}

// refs are the small dimension lookups several queries share.
type refs struct {
	d *tpch.Dataset

	nationName   map[int64]string
	nationRegion map[int64]string // nation key → region name
	nationKey    map[string]int64

	suppNation []int64 // supplier key → nation key (-1 if absent)
	custNation []int64 // customer key → nation key (-1 if absent)

	// orders by key: index+1 into the order arrays (0 if absent).
	orderIdx    []int32
	oCust       []int64
	oDate       []int32
	oStatus     []string
	oPriority   []string
	oTotalPrice []float64
	oShipPri    []int64
}

func newRefs(d *tpch.Dataset) *refs {
	x := &refs{d: d, nationName: map[int64]string{}, nationRegion: map[int64]string{}, nationKey: map[string]int64{}}
	regionName := map[int64]string{}
	rk, rn := colOf(d.Region, "r_regionkey"), colOf(d.Region, "r_name")
	eachRow(d.Region, func(b *storage.Block, r int) { regionName[rk.i64(b, r)] = rn.str(b, r) })
	nk, nn, nr := colOf(d.Nation, "n_nationkey"), colOf(d.Nation, "n_name"), colOf(d.Nation, "n_regionkey")
	eachRow(d.Nation, func(b *storage.Block, r int) {
		k := nk.i64(b, r)
		x.nationName[k] = nn.str(b, r)
		x.nationRegion[k] = regionName[nr.i64(b, r)]
		x.nationKey[nn.str(b, r)] = k
	})
	sk, sn := colOf(d.Supplier, "s_suppkey"), colOf(d.Supplier, "s_nationkey")
	x.suppNation = keyed(d.Supplier, sk, sn)
	ck, cn := colOf(d.Customer, "c_custkey"), colOf(d.Customer, "c_nationkey")
	x.custNation = keyed(d.Customer, ck, cn)

	ok := colOf(d.Orders, "o_orderkey")
	oc, od, os := colOf(d.Orders, "o_custkey"), colOf(d.Orders, "o_orderdate"), colOf(d.Orders, "o_orderstatus")
	op, ot := colOf(d.Orders, "o_orderpriority"), colOf(d.Orders, "o_totalprice")
	osp := colOf(d.Orders, "o_shippriority")
	x.orderIdx = make([]int32, maxKey(d.Orders, ok)+1)
	eachRow(d.Orders, func(b *storage.Block, r int) {
		x.oCust = append(x.oCust, oc.i64(b, r))
		x.oDate = append(x.oDate, od.date(b, r))
		x.oStatus = append(x.oStatus, os.str(b, r))
		x.oPriority = append(x.oPriority, op.str(b, r))
		x.oTotalPrice = append(x.oTotalPrice, ot.f64(b, r))
		x.oShipPri = append(x.oShipPri, osp.i64(b, r))
		x.orderIdx[ok.i64(b, r)] = int32(len(x.oCust))
	})
	return x
}

// keyed maps key column → value column into a key-indexed slice (-1 where a
// key is absent).
func keyed(t *storage.Table, key, val col) []int64 {
	out := make([]int64, maxKey(t, key)+1)
	for i := range out {
		out[i] = -1
	}
	eachRow(t, func(b *storage.Block, r int) { out[key.i64(b, r)] = val.i64(b, r) })
	return out
}

// order returns the index of an order key in the order arrays.
func (x *refs) order(key int64) (int, bool) {
	if key < 0 || key >= int64(len(x.orderIdx)) || x.orderIdx[key] == 0 {
		return 0, false
	}
	return int(x.orderIdx[key]) - 1, true
}

func at(s []int64, k int64) int64 {
	if k < 0 || k >= int64(len(s)) {
		return -1
	}
	return s[k]
}

// Oracle computes every query's expected answer over d.
func Oracle(d *tpch.Dataset) map[int]Answer {
	x := newRefs(d)
	qs := map[int]func() Answer{
		1: x.q1, 2: x.q2, 3: x.q3, 4: x.q4, 5: x.q5, 6: x.q6, 7: x.q7, 8: x.q8,
		9: x.q9, 10: x.q10, 11: x.q11, 12: x.q12, 13: x.q13, 14: x.q14, 15: x.q15,
		16: x.q16, 17: x.q17, 18: x.q18, 19: x.q19, 20: x.q20, 21: x.q21, 22: x.q22,
	}
	out := make(map[int]Answer, len(qs))
	for q, f := range qs {
		a := f()
		sortRows(a.Spec, a.Rows)
		out[q] = a
	}
	return out
}

func asc(cols ...int) []Term {
	out := make([]Term, len(cols))
	for i, c := range cols {
		out[i] = Term{Col: c}
	}
	return out
}

func (x *refs) q1() Answer {
	l := x.d.Lineitem
	ship, rf, ls := colOf(l, "l_shipdate"), colOf(l, "l_returnflag"), colOf(l, "l_linestatus")
	qty, ext, disc, tax := colOf(l, "l_quantity"), colOf(l, "l_extendedprice"), colOf(l, "l_discount"), colOf(l, "l_tax")
	type acc struct {
		rf, ls                              string
		qty, price, disc, discPrice, charge float64
		n                                   int64
	}
	groups := map[string]*acc{}
	cut := days(1998, 9, 2)
	eachRow(l, func(b *storage.Block, r int) {
		if ship.date(b, r) > cut {
			return
		}
		k := rf.str(b, r) + "|" + ls.str(b, r)
		a := groups[k]
		if a == nil {
			a = &acc{rf: rf.str(b, r), ls: ls.str(b, r)}
			groups[k] = a
		}
		e, dc := ext.f64(b, r), disc.f64(b, r)
		a.qty += qty.f64(b, r)
		a.price += e
		a.disc += dc
		a.discPrice += e * (1 - dc)
		a.charge += e * (1 - dc) * (1 + tax.f64(b, r))
		a.n++
	})
	var rows []Row
	for _, a := range groups {
		n := float64(a.n)
		rows = append(rows, Row{vChar(a.rf), vChar(a.ls), vFloat(a.qty), vFloat(a.price), vFloat(a.discPrice),
			vFloat(a.charge), vFloat(a.qty / n), vFloat(a.price / n), vFloat(a.disc / n), vInt(a.n)})
	}
	return Answer{Spec{Order: asc(0, 1)}, rows}
}

func (x *refs) q2() Answer {
	d := x.d
	type supp struct {
		name, addr, phone, comment, nation string
		acct                               float64
	}
	euro := map[int64]supp{}
	s := d.Supplier
	sk, sn, sname, saddr := colOf(s, "s_suppkey"), colOf(s, "s_nationkey"), colOf(s, "s_name"), colOf(s, "s_address")
	sphone, sacct, scomm := colOf(s, "s_phone"), colOf(s, "s_acctbal"), colOf(s, "s_comment")
	eachRow(s, func(b *storage.Block, r int) {
		n := sn.i64(b, r)
		if x.nationRegion[n] == "EUROPE" {
			euro[sk.i64(b, r)] = supp{sname.str(b, r), saddr.str(b, r), sphone.str(b, r), scomm.str(b, r),
				x.nationName[n], sacct.f64(b, r)}
		}
	})
	ps := d.Partsupp
	pk, psk, cost := colOf(ps, "ps_partkey"), colOf(ps, "ps_suppkey"), colOf(ps, "ps_supplycost")
	minCost := map[int64]float64{}
	eachRow(ps, func(b *storage.Block, r int) {
		if _, ok := euro[psk.i64(b, r)]; !ok {
			return
		}
		k, c := pk.i64(b, r), cost.f64(b, r)
		if m, ok := minCost[k]; !ok || c < m {
			minCost[k] = c
		}
	})
	p := d.Part
	ppk, size, ptype, mfgr := colOf(p, "p_partkey"), colOf(p, "p_size"), colOf(p, "p_type"), colOf(p, "p_mfgr")
	brass := map[int64]string{}
	eachRow(p, func(b *storage.Block, r int) {
		if size.i64(b, r) == 15 && ptype.like(b, r, "%BRASS") {
			brass[ppk.i64(b, r)] = mfgr.str(b, r)
		}
	})
	var rows []Row
	eachRow(ps, func(b *storage.Block, r int) {
		k := pk.i64(b, r)
		m, isBrass := brass[k]
		mc, hasMin := minCost[k]
		sp, isEuro := euro[psk.i64(b, r)]
		if isBrass && hasMin && isEuro && cost.f64(b, r) == mc {
			rows = append(rows, Row{vInt(k), vChar(m), vChar(sp.name), vChar(sp.addr), vChar(sp.phone),
				vFloat(sp.acct), vChar(sp.comment), vChar(sp.nation)})
		}
	})
	return Answer{Spec{Order: []Term{{5, true}, {7, false}, {2, false}, {0, false}}, Limit: 100}, rows}
}

func (x *refs) q3() Answer {
	d := x.d
	building := map[int64]bool{}
	ck, seg := colOf(d.Customer, "c_custkey"), colOf(d.Customer, "c_mktsegment")
	eachRow(d.Customer, func(b *storage.Block, r int) {
		if seg.is(b, r, "BUILDING") {
			building[ck.i64(b, r)] = true
		}
	})
	cut := days(1995, 3, 15)
	l := d.Lineitem
	lok, ship, ext, disc := colOf(l, "l_orderkey"), colOf(l, "l_shipdate"), colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	rev := map[int64]float64{}
	eachRow(l, func(b *storage.Block, r int) {
		if ship.date(b, r) <= cut {
			return
		}
		k := lok.i64(b, r)
		o, ok := x.order(k)
		if !ok || x.oDate[o] >= cut || !building[x.oCust[o]] {
			return
		}
		rev[k] += ext.f64(b, r) * (1 - disc.f64(b, r))
	})
	var rows []Row
	for k, v := range rev {
		o, _ := x.order(k)
		rows = append(rows, Row{vInt(k), vDate(x.oDate[o]), vInt(x.oShipPri[o]), vFloat(v)})
	}
	return Answer{Spec{Order: []Term{{3, true}, {1, false}}, Limit: 10}, rows}
}

func (x *refs) q4() Answer {
	d := x.d
	l := d.Lineitem
	lok, commit, receipt := colOf(l, "l_orderkey"), colOf(l, "l_commitdate"), colOf(l, "l_receiptdate")
	late := map[int64]bool{}
	eachRow(l, func(b *storage.Block, r int) {
		if commit.date(b, r) < receipt.date(b, r) {
			late[lok.i64(b, r)] = true
		}
	})
	lo, hi := days(1993, 7, 1), days(1993, 10, 1)
	counts := map[string]int64{}
	ok := colOf(d.Orders, "o_orderkey")
	eachRow(d.Orders, func(b *storage.Block, r int) {
		o, _ := x.order(ok.i64(b, r))
		if x.oDate[o] >= lo && x.oDate[o] < hi && late[ok.i64(b, r)] {
			counts[x.oPriority[o]]++
		}
	})
	var rows []Row
	for p, n := range counts {
		rows = append(rows, Row{vChar(p), vInt(n)})
	}
	return Answer{Spec{Order: asc(0)}, rows}
}

func (x *refs) q5() Answer {
	d := x.d
	lo, hi := days(1994, 1, 1), days(1995, 1, 1)
	l := d.Lineitem
	lok, lsk, ext, disc := colOf(l, "l_orderkey"), colOf(l, "l_suppkey"), colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	rev := map[string]float64{}
	eachRow(l, func(b *storage.Block, r int) {
		o, ok := x.order(lok.i64(b, r))
		if !ok || x.oDate[o] < lo || x.oDate[o] >= hi {
			return
		}
		cn := at(x.custNation, x.oCust[o])
		if cn < 0 || x.nationRegion[cn] != "ASIA" || at(x.suppNation, lsk.i64(b, r)) != cn {
			return
		}
		rev[x.nationName[cn]] += ext.f64(b, r) * (1 - disc.f64(b, r))
	})
	var rows []Row
	for n, v := range rev {
		rows = append(rows, Row{vChar(n), vFloat(v)})
	}
	return Answer{Spec{Order: []Term{{1, true}}}, rows}
}

func (x *refs) q6() Answer {
	l := x.d.Lineitem
	ship, disc, qty, ext := colOf(l, "l_shipdate"), colOf(l, "l_discount"), colOf(l, "l_quantity"), colOf(l, "l_extendedprice")
	lo, hi := days(1994, 1, 1), days(1995, 1, 1)
	sum := 0.0
	eachRow(l, func(b *storage.Block, r int) {
		s, dc := ship.date(b, r), disc.f64(b, r)
		if s >= lo && s < hi && dc >= 0.05 && dc <= 0.07 && qty.f64(b, r) < 24 {
			sum += ext.f64(b, r) * dc
		}
	})
	return Answer{Spec{}, []Row{{vFloat(sum)}}}
}

func (x *refs) q7() Answer {
	l := x.d.Lineitem
	lok, lsk, ship := colOf(l, "l_orderkey"), colOf(l, "l_suppkey"), colOf(l, "l_shipdate")
	ext, disc := colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	lo, hi := days(1995, 1, 1), days(1996, 12, 31)
	type key struct {
		sn, cn string
		year   int64
	}
	rev := map[key]float64{}
	frde := func(n int64) string {
		if name := x.nationName[n]; n >= 0 && (name == "FRANCE" || name == "GERMANY") {
			return name
		}
		return ""
	}
	eachRow(l, func(b *storage.Block, r int) {
		s := ship.date(b, r)
		if s < lo || s > hi {
			return
		}
		sn := frde(at(x.suppNation, lsk.i64(b, r)))
		o, ok := x.order(lok.i64(b, r))
		if sn == "" || !ok {
			return
		}
		cn := frde(at(x.custNation, x.oCust[o]))
		if cn == "" || cn == sn {
			return
		}
		rev[key{sn, cn, int64(types.Year(s))}] += ext.f64(b, r) * (1 - disc.f64(b, r))
	})
	var rows []Row
	for k, v := range rev {
		rows = append(rows, Row{vChar(k.sn), vChar(k.cn), vInt(k.year), vFloat(v)})
	}
	return Answer{Spec{Order: asc(0, 1, 2)}, rows}
}

func (x *refs) q8() Answer {
	d := x.d
	p := d.Part
	ppk, ptype := colOf(p, "p_partkey"), colOf(p, "p_type")
	parts := map[int64]bool{}
	eachRow(p, func(b *storage.Block, r int) {
		if ptype.is(b, r, "ECONOMY ANODIZED STEEL") {
			parts[ppk.i64(b, r)] = true
		}
	})
	lo, hi := days(1995, 1, 1), days(1996, 12, 31)
	l := d.Lineitem
	lpk, lok, lsk := colOf(l, "l_partkey"), colOf(l, "l_orderkey"), colOf(l, "l_suppkey")
	ext, disc := colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	type acc struct{ brazil, total float64 }
	years := map[int64]*acc{}
	eachRow(l, func(b *storage.Block, r int) {
		if !parts[lpk.i64(b, r)] {
			return
		}
		o, ok := x.order(lok.i64(b, r))
		if !ok || x.oDate[o] < lo || x.oDate[o] > hi {
			return
		}
		cn := at(x.custNation, x.oCust[o])
		sn := at(x.suppNation, lsk.i64(b, r))
		if cn < 0 || x.nationRegion[cn] != "AMERICA" || sn < 0 {
			return
		}
		y := int64(types.Year(x.oDate[o]))
		a := years[y]
		if a == nil {
			a = &acc{}
			years[y] = a
		}
		vol := ext.f64(b, r) * (1 - disc.f64(b, r))
		if x.nationName[sn] == "BRAZIL" {
			a.brazil += vol
		}
		a.total += vol
	})
	var rows []Row
	for y, a := range years {
		rows = append(rows, Row{vInt(y), vFloat(a.brazil / a.total)})
	}
	return Answer{Spec{Order: asc(0)}, rows}
}

func (x *refs) q9() Answer {
	d := x.d
	p := d.Part
	ppk, pname := colOf(p, "p_partkey"), colOf(p, "p_name")
	green := map[int64]bool{}
	eachRow(p, func(b *storage.Block, r int) {
		if pname.like(b, r, "%green%") {
			green[ppk.i64(b, r)] = true
		}
	})
	type pair struct{ part, supp int64 }
	cost := map[pair]float64{}
	ps := d.Partsupp
	pk, psk, pc := colOf(ps, "ps_partkey"), colOf(ps, "ps_suppkey"), colOf(ps, "ps_supplycost")
	eachRow(ps, func(b *storage.Block, r int) {
		if green[pk.i64(b, r)] {
			cost[pair{pk.i64(b, r), psk.i64(b, r)}] = pc.f64(b, r)
		}
	})
	l := d.Lineitem
	lpk, lsk, lok := colOf(l, "l_partkey"), colOf(l, "l_suppkey"), colOf(l, "l_orderkey")
	qty, ext, disc := colOf(l, "l_quantity"), colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	type key struct {
		nation string
		year   int64
	}
	profit := map[key]float64{}
	eachRow(l, func(b *storage.Block, r int) {
		c, ok := cost[pair{lpk.i64(b, r), lsk.i64(b, r)}]
		if !ok {
			return
		}
		sn := at(x.suppNation, lsk.i64(b, r))
		o, found := x.order(lok.i64(b, r))
		if sn < 0 || !found {
			return
		}
		k := key{x.nationName[sn], int64(types.Year(x.oDate[o]))}
		profit[k] += ext.f64(b, r)*(1-disc.f64(b, r)) - c*qty.f64(b, r)
	})
	var rows []Row
	for k, v := range profit {
		rows = append(rows, Row{vChar(k.nation), vInt(k.year), vFloat(v)})
	}
	return Answer{Spec{Order: []Term{{0, false}, {1, true}}}, rows}
}

func (x *refs) q10() Answer {
	d := x.d
	lo, hi := days(1993, 10, 1), days(1994, 1, 1)
	l := d.Lineitem
	lok, rf, ext, disc := colOf(l, "l_orderkey"), colOf(l, "l_returnflag"), colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	rev := map[int64]float64{}
	eachRow(l, func(b *storage.Block, r int) {
		if !rf.is(b, r, "R") {
			return
		}
		o, ok := x.order(lok.i64(b, r))
		if !ok || x.oDate[o] < lo || x.oDate[o] >= hi || at(x.custNation, x.oCust[o]) < 0 {
			return
		}
		rev[x.oCust[o]] += ext.f64(b, r) * (1 - disc.f64(b, r))
	})
	c := d.Customer
	ck, cname, cacct, cphone := colOf(c, "c_custkey"), colOf(c, "c_name"), colOf(c, "c_acctbal"), colOf(c, "c_phone")
	caddr, ccomm, cn := colOf(c, "c_address"), colOf(c, "c_comment"), colOf(c, "c_nationkey")
	var rows []Row
	eachRow(c, func(b *storage.Block, r int) {
		v, ok := rev[ck.i64(b, r)]
		if !ok {
			return
		}
		rows = append(rows, Row{vInt(ck.i64(b, r)), vChar(cname.str(b, r)), vFloat(cacct.f64(b, r)),
			vChar(cphone.str(b, r)), vChar(x.nationName[cn.i64(b, r)]), vChar(caddr.str(b, r)),
			vChar(ccomm.str(b, r)), vFloat(v)})
	})
	return Answer{Spec{Order: []Term{{7, true}}, Limit: 20}, rows}
}

func (x *refs) q11() Answer {
	d := x.d
	de := x.nationKey["GERMANY"]
	ps := d.Partsupp
	pk, psk, cost, avail := colOf(ps, "ps_partkey"), colOf(ps, "ps_suppkey"), colOf(ps, "ps_supplycost"), colOf(ps, "ps_availqty")
	value := map[int64]float64{}
	total := 0.0
	eachRow(ps, func(b *storage.Block, r int) {
		if at(x.suppNation, psk.i64(b, r)) != de {
			return
		}
		v := cost.f64(b, r) * float64(avail.i64(b, r))
		value[pk.i64(b, r)] += v
		total += v
	})
	threshold := total * (0.0001 / d.SF)
	var rows []Row
	for k, v := range value {
		if v > threshold {
			rows = append(rows, Row{vInt(k), vFloat(v)})
		}
	}
	return Answer{Spec{Order: []Term{{1, true}}}, rows}
}

func (x *refs) q12() Answer {
	l := x.d.Lineitem
	lok, mode := colOf(l, "l_orderkey"), colOf(l, "l_shipmode")
	ship, commit, receipt := colOf(l, "l_shipdate"), colOf(l, "l_commitdate"), colOf(l, "l_receiptdate")
	lo, hi := days(1994, 1, 1), days(1995, 1, 1)
	type acc struct{ high, low int64 }
	modes := map[string]*acc{}
	eachRow(l, func(b *storage.Block, r int) {
		m := mode.str(b, r)
		c, rc := commit.date(b, r), receipt.date(b, r)
		if !oneOf(m, "MAIL", "SHIP") || c >= rc || ship.date(b, r) >= c || rc < lo || rc >= hi {
			return
		}
		o, ok := x.order(lok.i64(b, r))
		if !ok {
			return
		}
		a := modes[m]
		if a == nil {
			a = &acc{}
			modes[m] = a
		}
		if oneOf(x.oPriority[o], "1-URGENT", "2-HIGH") {
			a.high++
		} else {
			a.low++
		}
	})
	var rows []Row
	for m, a := range modes {
		rows = append(rows, Row{vChar(m), vInt(a.high), vInt(a.low)})
	}
	return Answer{Spec{Order: asc(0)}, rows}
}

func (x *refs) q13() Answer {
	d := x.d
	oc, comm := colOf(d.Orders, "o_custkey"), colOf(d.Orders, "o_comment")
	perCust := map[int64]int64{}
	eachRow(d.Orders, func(b *storage.Block, r int) {
		if !comm.like(b, r, "%special%requests%") {
			perCust[oc.i64(b, r)]++
		}
	})
	dist := map[int64]int64{}
	ck := colOf(d.Customer, "c_custkey")
	eachRow(d.Customer, func(b *storage.Block, r int) { dist[perCust[ck.i64(b, r)]]++ })
	var rows []Row
	for c, n := range dist {
		rows = append(rows, Row{vInt(c), vInt(n)})
	}
	return Answer{Spec{Order: []Term{{1, true}, {0, true}}}, rows}
}

func (x *refs) q14() Answer {
	d := x.d
	p := d.Part
	ppk, ptype := colOf(p, "p_partkey"), colOf(p, "p_type")
	promo := map[int64]bool{}
	eachRow(p, func(b *storage.Block, r int) { promo[ppk.i64(b, r)] = ptype.like(b, r, "PROMO%") })
	l := d.Lineitem
	lpk, ship, ext, disc := colOf(l, "l_partkey"), colOf(l, "l_shipdate"), colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	lo, hi := days(1995, 9, 1), days(1995, 10, 1)
	var pr, total float64
	eachRow(l, func(b *storage.Block, r int) {
		s := ship.date(b, r)
		isPromo, ok := promo[lpk.i64(b, r)]
		if s < lo || s >= hi || !ok {
			return
		}
		vol := ext.f64(b, r) * (1 - disc.f64(b, r))
		if isPromo {
			pr += vol
		}
		total += vol
	})
	return Answer{Spec{}, []Row{{vFloat(100 * (pr / total))}}}
}

func (x *refs) q15() Answer {
	d := x.d
	l := d.Lineitem
	lsk, ship, ext, disc := colOf(l, "l_suppkey"), colOf(l, "l_shipdate"), colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	lo, hi := days(1996, 1, 1), days(1996, 4, 1)
	rev := map[int64]float64{}
	eachRow(l, func(b *storage.Block, r int) {
		if s := ship.date(b, r); s >= lo && s < hi {
			rev[lsk.i64(b, r)] += ext.f64(b, r) * (1 - disc.f64(b, r))
		}
	})
	max := math.Inf(-1)
	for _, v := range rev {
		max = math.Max(max, v)
	}
	s := d.Supplier
	sk, name, addr, phone := colOf(s, "s_suppkey"), colOf(s, "s_name"), colOf(s, "s_address"), colOf(s, "s_phone")
	var rows []Row
	eachRow(s, func(b *storage.Block, r int) {
		if v, ok := rev[sk.i64(b, r)]; ok && v == max {
			rows = append(rows, Row{vInt(sk.i64(b, r)), vChar(name.str(b, r)), vChar(addr.str(b, r)),
				vChar(phone.str(b, r)), vFloat(v)})
		}
	})
	return Answer{Spec{Order: asc(0)}, rows}
}

func (x *refs) q16() Answer {
	d := x.d
	s := d.Supplier
	sk, scomm := colOf(s, "s_suppkey"), colOf(s, "s_comment")
	complaints := map[int64]bool{}
	eachRow(s, func(b *storage.Block, r int) {
		if scomm.like(b, r, "%Customer%Complaints%") {
			complaints[sk.i64(b, r)] = true
		}
	})
	type key struct {
		brand, ptype string
		size         int64
	}
	p := d.Part
	ppk, brand, ptype, size := colOf(p, "p_partkey"), colOf(p, "p_brand"), colOf(p, "p_type"), colOf(p, "p_size")
	parts := map[int64]key{}
	eachRow(p, func(b *storage.Block, r int) {
		sz := size.i64(b, r)
		inSizes := sz == 49 || sz == 14 || sz == 23 || sz == 45 || sz == 19 || sz == 3 || sz == 36 || sz == 9
		if !brand.is(b, r, "Brand#45") && !ptype.like(b, r, "MEDIUM POLISHED%") && inSizes {
			parts[ppk.i64(b, r)] = key{brand.str(b, r), ptype.str(b, r), sz}
		}
	})
	supps := map[key]map[int64]bool{}
	ps := d.Partsupp
	pk, psk := colOf(ps, "ps_partkey"), colOf(ps, "ps_suppkey")
	eachRow(ps, func(b *storage.Block, r int) {
		k, ok := parts[pk.i64(b, r)]
		if !ok || complaints[psk.i64(b, r)] {
			return
		}
		if supps[k] == nil {
			supps[k] = map[int64]bool{}
		}
		supps[k][psk.i64(b, r)] = true
	})
	var rows []Row
	for k, set := range supps {
		rows = append(rows, Row{vChar(k.brand), vChar(k.ptype), vInt(k.size), vInt(int64(len(set)))})
	}
	return Answer{Spec{Order: []Term{{3, true}, {0, false}, {1, false}, {2, false}}}, rows}
}

func (x *refs) q17() Answer {
	d := x.d
	p := d.Part
	ppk, brand, cont := colOf(p, "p_partkey"), colOf(p, "p_brand"), colOf(p, "p_container")
	parts := map[int64]bool{}
	eachRow(p, func(b *storage.Block, r int) {
		if brand.is(b, r, "Brand#23") && cont.is(b, r, "MED BOX") {
			parts[ppk.i64(b, r)] = true
		}
	})
	l := d.Lineitem
	lpk, qty, ext := colOf(l, "l_partkey"), colOf(l, "l_quantity"), colOf(l, "l_extendedprice")
	type acc struct {
		sum float64
		n   int64
	}
	avg := map[int64]*acc{}
	eachRow(l, func(b *storage.Block, r int) {
		k := lpk.i64(b, r)
		if !parts[k] {
			return
		}
		a := avg[k]
		if a == nil {
			a = &acc{}
			avg[k] = a
		}
		a.sum += qty.f64(b, r)
		a.n++
	})
	sum := 0.0
	eachRow(l, func(b *storage.Block, r int) {
		if a := avg[lpk.i64(b, r)]; a != nil && qty.f64(b, r) < 0.2*(a.sum/float64(a.n)) {
			sum += ext.f64(b, r)
		}
	})
	return Answer{Spec{}, []Row{{vFloat(sum / 7)}}}
}

func (x *refs) q18() Answer {
	d := x.d
	l := d.Lineitem
	lok, qty := colOf(l, "l_orderkey"), colOf(l, "l_quantity")
	sums := map[int64]float64{}
	eachRow(l, func(b *storage.Block, r int) { sums[lok.i64(b, r)] += qty.f64(b, r) })
	ck, cname := colOf(d.Customer, "c_custkey"), colOf(d.Customer, "c_name")
	names := map[int64]string{}
	eachRow(d.Customer, func(b *storage.Block, r int) { names[ck.i64(b, r)] = cname.str(b, r) })
	var rows []Row
	for k, s := range sums {
		if s <= 300 {
			continue
		}
		o, ok := x.order(k)
		if !ok {
			continue
		}
		name, ok := names[x.oCust[o]]
		if !ok {
			continue
		}
		rows = append(rows, Row{vInt(x.oCust[o]), vInt(k), vDate(x.oDate[o]), vFloat(x.oTotalPrice[o]),
			vFloat(s), vChar(name)})
	}
	return Answer{Spec{Order: []Term{{3, true}, {2, false}}, Limit: 100}, rows}
}

func (x *refs) q19() Answer {
	d := x.d
	type part struct {
		brand, container string
		size             int64
	}
	p := d.Part
	ppk, brand, cont, size := colOf(p, "p_partkey"), colOf(p, "p_brand"), colOf(p, "p_container"), colOf(p, "p_size")
	parts := map[int64]part{}
	eachRow(p, func(b *storage.Block, r int) {
		if sz := size.i64(b, r); sz >= 1 && sz <= 15 {
			parts[ppk.i64(b, r)] = part{brand.str(b, r), cont.str(b, r), sz}
		}
	})
	branch := func(pt part, q float64, brand string, containers []string, qlo, qhi float64, smax int64) bool {
		return pt.brand == brand && oneOf(pt.container, containers...) && q >= qlo && q <= qhi && pt.size <= smax
	}
	l := d.Lineitem
	lpk, qty, ext, disc := colOf(l, "l_partkey"), colOf(l, "l_quantity"), colOf(l, "l_extendedprice"), colOf(l, "l_discount")
	mode, instr := colOf(l, "l_shipmode"), colOf(l, "l_shipinstruct")
	sum := 0.0
	eachRow(l, func(b *storage.Block, r int) {
		if !oneOf(mode.str(b, r), "AIR", "REG AIR") || !instr.is(b, r, "DELIVER IN PERSON") {
			return
		}
		pt, ok := parts[lpk.i64(b, r)]
		if !ok {
			return
		}
		q := qty.f64(b, r)
		if branch(pt, q, "Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5) ||
			branch(pt, q, "Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10) ||
			branch(pt, q, "Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15) {
			sum += ext.f64(b, r) * (1 - disc.f64(b, r))
		}
	})
	return Answer{Spec{}, []Row{{vFloat(sum)}}}
}

func (x *refs) q20() Answer {
	d := x.d
	p := d.Part
	ppk, pname := colOf(p, "p_partkey"), colOf(p, "p_name")
	forest := map[int64]bool{}
	eachRow(p, func(b *storage.Block, r int) {
		if pname.like(b, r, "forest%") {
			forest[ppk.i64(b, r)] = true
		}
	})
	type pair struct{ part, supp int64 }
	qty := map[pair]float64{}
	l := d.Lineitem
	lpk, lsk, lq, ship := colOf(l, "l_partkey"), colOf(l, "l_suppkey"), colOf(l, "l_quantity"), colOf(l, "l_shipdate")
	lo, hi := days(1994, 1, 1), days(1995, 1, 1)
	eachRow(l, func(b *storage.Block, r int) {
		if s := ship.date(b, r); s >= lo && s < hi && forest[lpk.i64(b, r)] {
			qty[pair{lpk.i64(b, r), lsk.i64(b, r)}] += lq.f64(b, r)
		}
	})
	excess := map[int64]bool{}
	ps := d.Partsupp
	pk, psk, avail := colOf(ps, "ps_partkey"), colOf(ps, "ps_suppkey"), colOf(ps, "ps_availqty")
	eachRow(ps, func(b *storage.Block, r int) {
		if !forest[pk.i64(b, r)] {
			return
		}
		if q, ok := qty[pair{pk.i64(b, r), psk.i64(b, r)}]; ok && float64(avail.i64(b, r)) > 0.5*q {
			excess[psk.i64(b, r)] = true
		}
	})
	ca := x.nationKey["CANADA"]
	s := d.Supplier
	sk, sn, name, addr := colOf(s, "s_suppkey"), colOf(s, "s_nationkey"), colOf(s, "s_name"), colOf(s, "s_address")
	var rows []Row
	eachRow(s, func(b *storage.Block, r int) {
		if sn.i64(b, r) == ca && excess[sk.i64(b, r)] {
			rows = append(rows, Row{vChar(name.str(b, r)), vChar(addr.str(b, r))})
		}
	})
	return Answer{Spec{Order: asc(0)}, rows}
}

func (x *refs) q21() Answer {
	d := x.d
	sa := x.nationKey["SAUDI ARABIA"]
	s := d.Supplier
	sk, sn, sname := colOf(s, "s_suppkey"), colOf(s, "s_nationkey"), colOf(s, "s_name")
	names := map[int64]string{}
	eachRow(s, func(b *storage.Block, r int) {
		if sn.i64(b, r) == sa {
			names[sk.i64(b, r)] = sname.str(b, r)
		}
	})
	// Per order: the first supplier seen and whether a second distinct one
	// exists, over all lineitems and over late ones.
	type suppliers struct {
		first, lateFirst int64
		multi, lateMulti bool
		late             bool
	}
	l := d.Lineitem
	lok, lsk, commit, receipt := colOf(l, "l_orderkey"), colOf(l, "l_suppkey"), colOf(l, "l_commitdate"), colOf(l, "l_receiptdate")
	per := make([]suppliers, len(x.orderIdx))
	seen := make([]bool, len(x.orderIdx))
	isLate := func(b *storage.Block, r int) bool { return receipt.date(b, r) > commit.date(b, r) }
	eachRow(l, func(b *storage.Block, r int) {
		k, sup := lok.i64(b, r), lsk.i64(b, r)
		if _, ok := x.order(k); !ok {
			return
		}
		p := &per[k]
		if !seen[k] {
			seen[k], p.first = true, sup
		} else if p.first != sup {
			p.multi = true
		}
		if isLate(b, r) {
			if !p.late {
				p.late, p.lateFirst = true, sup
			} else if p.lateFirst != sup {
				p.lateMulti = true
			}
		}
	})
	numwait := map[string]int64{}
	eachRow(l, func(b *storage.Block, r int) {
		k, sup := lok.i64(b, r), lsk.i64(b, r)
		name, isSA := names[sup]
		o, ok := x.order(k)
		if !isSA || !isLate(b, r) || !ok || x.oStatus[o] != "F" {
			return
		}
		p := per[k]
		otherExists := p.multi || p.first != sup
		otherLate := p.late && (p.lateMulti || p.lateFirst != sup)
		if otherExists && !otherLate {
			numwait[name]++
		}
	})
	var rows []Row
	for n, c := range numwait {
		rows = append(rows, Row{vChar(n), vInt(c)})
	}
	return Answer{Spec{Order: []Term{{1, true}, {0, false}}, Limit: 100}, rows}
}

func (x *refs) q22() Answer {
	d := x.d
	c := d.Customer
	ck, phone, acct := colOf(c, "c_custkey"), colOf(c, "c_phone"), colOf(c, "c_acctbal")
	code := func(b *storage.Block, r int) (string, bool) {
		p := phone.raw(b, r)
		if len(p) > 2 {
			p = p[:2]
		}
		s := string(p)
		return s, oneOf(s, "13", "31", "23", "29", "30", "18", "17")
	}
	var sum float64
	var n int64
	eachRow(c, func(b *storage.Block, r int) {
		if _, ok := code(b, r); ok && acct.f64(b, r) > 0 {
			sum += acct.f64(b, r)
			n++
		}
	})
	avg := 0.0
	if n > 0 {
		avg = sum / float64(n)
	}
	hasOrders := map[int64]bool{}
	for _, cust := range x.oCust {
		hasOrders[cust] = true
	}
	type acc struct {
		n   int64
		sum float64
	}
	groups := map[string]*acc{}
	eachRow(c, func(b *storage.Block, r int) {
		cc, ok := code(b, r)
		if !ok || acct.f64(b, r) <= avg || hasOrders[ck.i64(b, r)] {
			return
		}
		a := groups[cc]
		if a == nil {
			a = &acc{}
			groups[cc] = a
		}
		a.n++
		a.sum += acct.f64(b, r)
	})
	var rows []Row
	for cc, a := range groups {
		rows = append(rows, Row{vChar(cc), vInt(a.n), vFloat(a.sum)})
	}
	return Answer{Spec{Order: asc(0)}, rows}
}

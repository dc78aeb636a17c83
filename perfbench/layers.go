package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// span is one benchmark-recorded interval around a call into the program.
type span struct {
	ID, Parent int // Parent 0 = none
	Name       string
	Query      int // TPC-H query number, -1 for a round
	Start, End time.Time
}

// recorder keeps spans in memory; a nil recorder records nothing.
type recorder struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// id allocates a span id (0 on a nil recorder).
func (r *recorder) id() int {
	if r == nil {
		return 0
	}
	return int(r.next.Add(1))
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// opKind maps an operator name ("probe(orders)") to its kind; "" for kinds
// the exec metrics do not break down.
func opKind(name string) string {
	k, _, _ := strings.Cut(name, "(")
	switch k {
	case "select", "filter", "having", "compute":
		return "select"
	case "build", "probe", "agg", "sort":
		return k
	}
	return ""
}

type kindAcc struct{ busyNS, rowsIn, rowsOut int64 }

// layerAcc accumulates the per-layer numbers of the traced rounds.
type layerAcc struct {
	traced   int
	seenRuns map[int]bool

	plan, execute, result time.Duration
	workOrders, busyNS    int64
	queueNS, workerNS     int64
	kinds                 map[string]*kindAcc

	uotRaises, aggFast, aggAll, sortFast, sortAll, topk int64
	shardLocks, batched, checkouts                      int64
	spillOut, spillBytesOut, spillBytesIn, spillStall   int64
	diskPeak                                            int64

	queued, service, overhead []float64 // ms per tpch-serve query
	admitted, shed            int64

	metrics map[string]float64
}

func newLayerAcc() *layerAcc {
	l := &layerAcc{seenRuns: map[int]bool{}, kinds: map[string]*kindAcc{}}
	for _, k := range opKinds {
		l.kinds[k] = &kindAcc{}
	}
	return l
}

// addRound folds one traced round: the benchmark's own timings, each run's
// stats snapshot, and the trace sections the round added.
func (l *layerAcc) addRound(rr roundResult, m trace.Metrics) {
	l.traced++
	l.workerNS += int64(rr.workerTime)
	l.admitted += rr.admitted
	l.shed += rr.shed
	for _, x := range rr.execs {
		l.plan += x.plan
		l.execute += x.execute
		l.result += x.result
		run := x.run
		l.uotRaises += run.Robust().UoTRaises
		_, _, af, ab := run.AggKernels()
		l.aggFast += af
		l.aggAll += af + ab
		_, _, sf, sb, tk := run.SortKernels()
		l.sortFast += sf
		l.sortAll += sf + sb
		l.topk += tk
		locks, batched, _ := run.Contention()
		l.shardLocks += locks
		l.batched += batched
		l.checkouts += run.Checkouts()
		sp := run.Spill()
		l.spillOut += sp.BlocksOut
		l.spillBytesOut += sp.BytesOut
		l.spillBytesIn += sp.BytesIn
		l.spillStall += sp.FaultStallNS
		l.diskPeak += sp.DiskPeak
		if x.elapsed > 0 {
			l.queued = append(l.queued, float64(x.queued)/1e6)
			l.service = append(l.service, float64(x.elapsed)/1e6)
			l.overhead = append(l.overhead, float64(x.latency-x.elapsed)/1e6)
		}
	}
	for _, run := range m.Runs {
		if l.seenRuns[run.Run] {
			continue
		}
		l.seenRuns[run.Run] = true
		for _, op := range run.Ops {
			l.workOrders += op.Spans
			l.busyNS += op.BusyNS
			l.queueNS += op.QueueNS
			if k := l.kinds[opKind(op.Name)]; k != nil {
				k.busyNS += op.BusyNS
				k.rowsIn += op.Rows
				k.rowsOut += op.RowsOut
			}
		}
	}
}

func share(part, all int64) float64 {
	if all == 0 {
		return 0
	}
	return float64(part) / float64(all)
}

func medianOrZero(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// finish turns the totals into per-round metrics. The runtime metrics and
// the untraced side of the tracing overhead come from the untraced measured
// rounds (every even round after the warm-up).
func (l *layerAcc) finish(rounds []roundResult) {
	n := float64(l.traced)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	perRound := func(v int64) float64 { return float64(v) / n }
	m := map[string]float64{
		"engine.plan_ms":              ms(int64(l.plan)),
		"engine.execute_ms":           ms(int64(l.execute)),
		"engine.result_ms":            ms(int64(l.result)),
		"core.work_orders":            perRound(l.workOrders),
		"core.busy_ms":                ms(l.busyNS),
		"core.queue_ms":               ms(l.queueNS),
		"core.idle_share":             1 - share(l.busyNS, l.workerNS),
		"core.uot_raises":             perRound(l.uotRaises),
		"aggtable.fast_rows_share":    share(l.aggFast, l.aggAll),
		"sorter.fast_rows_share":      share(l.sortFast, l.sortAll),
		"sorter.topk_pruned":          perRound(l.topk),
		"hashtable.shard_locks":       perRound(l.shardLocks),
		"hashtable.batched_rows":      perRound(l.batched),
		"storage.checkouts":           perRound(l.checkouts),
		"storage.spill.blocks_out":    perRound(l.spillOut),
		"storage.spill.bytes_out_mib": perRound(l.spillBytesOut) / mib,
		"storage.spill.bytes_in_mib":  perRound(l.spillBytesIn) / mib,
		"storage.spill.stall_ms":      ms(l.spillStall),
		"storage.spill.disk_peak_mib": perRound(l.diskPeak) / mib,
		"session.queue_ms":            medianOrZero(l.queued),
		"session.service_ms":          medianOrZero(l.service),
		"session.overhead_ms":         medianOrZero(l.overhead),
		"session.admitted":            perRound(l.admitted),
		"session.shed":                perRound(l.shed),
	}
	for _, k := range opKinds {
		a := l.kinds[k]
		m["exec."+k+".busy_ms"] = ms(a.busyNS)
		m["exec."+k+".rows_in"] = perRound(a.rowsIn)
		m["exec."+k+".rows_out"] = perRound(a.rowsOut)
	}
	var tracedPass, plainPass []float64
	var alloc, pause float64
	var gcs, plain int
	for r, rr := range rounds {
		switch {
		case rr.traced:
			tracedPass = append(tracedPass, rr.pass.Seconds())
		case r > 0:
			plainPass = append(plainPass, rr.pass.Seconds())
			alloc += float64(rr.allocBytes)
			gcs += int(rr.gcCycles)
			pause += float64(rr.gcPauseNS)
			plain++
		}
	}
	m["runtime.alloc_mib"] = alloc / float64(plain) / mib
	m["runtime.gc_cycles"] = float64(gcs) / float64(plain)
	m["runtime.gc_pause_ms"] = pause / float64(plain) / 1e6
	m["trace.overhead_ratio"] = median(tracedPass) / median(plainPass)
	l.metrics = m
}

// selfTimes returns each span name's total self time in ms: its duration
// minus the part of it that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		var curStart, curEnd time.Time
		for i, k := range kids {
			if i == 0 || k.Start.After(curEnd) {
				covered += curEnd.Sub(curStart)
				curStart, curEnd = k.Start, k.End
			} else if k.End.After(curEnd) {
				curEnd = k.End
			}
		}
		covered += curEnd.Sub(curStart)
		out[s.Name] += float64(s.End.Sub(s.Start)-covered) / 1e6
	}
	return out
}

// writeTraceFiles writes the benchmark's spans as a Chrome trace, the
// engine tracer's own Chrome trace, and the per-layer JSON file.
func writeTraceFiles(workload string, seed int64, rec *recorder, tr *trace.Tracer, l *layerAcc) error {
	dir := filepath.Join(workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prefix := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	var base time.Time
	if len(rec.spans) > 0 {
		base = rec.spans[0].Start
		for _, s := range rec.spans {
			if s.Start.Before(base) {
				base = s.Start
			}
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(rec.spans))
	for _, s := range rec.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Query + 1,
			TS: float64(s.Start.Sub(base)) / 1e3, Dur: float64(s.End.Sub(s.Start)) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "query": s.Query},
		})
	}
	if err := writeJSON(prefix+".spans.json", map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	if err := tr.WriteChromeFile(prefix + ".engine.json"); err != nil {
		return err
	}
	return writeJSON(prefix+".layers.json", map[string]any{
		"workload":     workload,
		"seed":         seed,
		"metrics":      l.metrics,
		"span_self_ms": selfTimes(rec.spans),
	})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

const (
	// scaleFactor is the TPC-H scale of the generated dataset.
	scaleFactor = 0.1
	// baseBlockBytes is the base-table block size (column store).
	baseBlockBytes = 128 << 10
	// setupRepeats is how often setup runs; setup_s is the median.
	setupRepeats = 3
	// workDir holds everything a run writes, relative to the checkout.
	workDir = ".bench_build"
	mib     = 1 << 20
)

// workload is one way of driving the engine. A round runs each of the 22
// queries once per client; every run attempts whole rounds.
type workload struct {
	calibrate bool // spill thresholds measured at setup
	round     func(b *bench, r int, rec *recorder, tr *trace.Tracer) roundResult
}

var workloads = map[string]workload{
	"tpch-power": {round: (*bench).powerRound},
	"tpch-serve": {round: (*bench).serveRound},
	"tpch-spill": {calibrate: true, round: (*bench).spillRound},
}

// bench is one invocation's state.
type bench struct {
	name       string
	seed       int64
	nproc      int
	d          *tpch.Dataset
	queries    []int
	oracle     map[int]Answer
	thresholds map[int]int64 // tpch-spill: per-query spill threshold
	spillDir   string
	sess       *session.Session // tpch-serve, untraced rounds
	tracedSess *session.Session // tpch-serve, traced rounds
}

// queryExec is one query execution as a client saw it.
type queryExec struct {
	q                     int
	ok                    bool // returned a result; timings are valid
	plan, execute, result time.Duration
	latency               time.Duration
	queued, elapsed       time.Duration // tpch-serve: Response.Queued/Elapsed
	peakTemp, peakHash    int64         // peak live temp-block and hash-table bytes
	run                   *stats.Run    // read by traced rounds, dropped after the round
}

// roundResult is one round's outcome.
type roundResult struct {
	execs             []queryExec
	pass              time.Duration // whole-round query time
	workerTime        time.Duration // pass time × workers available to it
	attempted, failed int
	admitted, shed    int64
	traced            bool
	allocBytes        uint64
	gcCycles          uint32
	gcPauseNS         uint64
}

func (rr *roundResult) add(x queryExec, failure string, b *bench, r int) {
	rr.attempted++
	if failure != "" {
		rr.failed++
		fmt.Fprintf(os.Stderr, "FAILED workload=%s round=%d query=Q%d: %s\n", b.name, r, x.q, failure)
	}
	if x.ok {
		rr.execs = append(rr.execs, x)
	}
}

// order is the seeded query order of one client in one round.
func (b *bench) order(r, client int) []int {
	rng := rand.New(rand.NewSource(b.seed*1_000_003 + int64(r)*1_009 + int64(client)))
	out := make([]int, len(b.queries))
	for i, p := range rng.Perm(len(b.queries)) {
		out[i] = b.queries[p]
	}
	return out
}

func run(name string, seed int64, seconds int, traced bool) (*Result, error) {
	w := workloads[name]
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{name: name, seed: seed, nproc: runtime.GOMAXPROCS(0), queries: tpch.Numbers(),
		spillDir: filepath.Join(dir, "spill")}
	if len(b.queries) != 22 {
		return nil, fmt.Errorf("tpch implements %d queries, want 22", len(b.queries))
	}
	if err := os.Mkdir(b.spillDir, 0o755); err != nil {
		return nil, err
	}

	setupTimes, err := b.setup(w)
	if err != nil {
		return nil, err
	}
	setupS := median(setupTimes)
	oracleStart := time.Now()
	b.oracle = Oracle(b.d)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: setup %.3fs (median of %.3f), oracle %.2fs\n",
		name, seed, setupS, setupTimes, time.Since(oracleStart).Seconds())
	for _, q := range b.queries {
		if _, ok := b.oracle[q]; !ok {
			return nil, fmt.Errorf("oracle has no answer for Q%d", q)
		}
	}

	var tracer *trace.Tracer
	var rec *recorder
	if traced {
		tracer, rec = trace.New(0), &recorder{}
	}
	if name == "tpch-serve" {
		b.sess = session.Open(session.Config{Workers: b.nproc})
		b.tracedSess = session.Open(session.Config{Workers: b.nproc, Trace: tracer})
		defer b.sess.Close()
		defer b.tracedSess.Close()
	}

	layers := newLayerAcc()
	minRounds := 2 // a warm-up round, then at least one measured
	if traced {
		minRounds = 3 // warm-up, traced, untraced
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var rounds []roundResult
	for r := 0; ; r++ {
		tracedRound := traced && r%2 == 1
		// Every round starts from a collected heap, so garbage one round
		// leaves behind does not land in the next round's timing.
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var rr roundResult
		if tracedRound {
			rr = w.round(b, r, rec, tracer)
		} else {
			rr = w.round(b, r, nil, nil)
		}
		runtime.ReadMemStats(&ms1)
		rr.traced = tracedRound
		rr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		rr.gcCycles = ms1.NumGC - ms0.NumGC
		rr.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
		if tracedRound {
			layers.addRound(rr, tracer.Snapshot())
		}
		// A run's stats hold every work order; keeping them past the round
		// would grow the live heap, and with it the collector's work, from
		// round to round.
		for i := range rr.execs {
			rr.execs[i].run = nil
		}
		rounds = append(rounds, rr)
		if r+1 >= minRounds && time.Now().After(deadline) {
			break
		}
	}
	passes := make([]string, len(rounds))
	for i, rr := range rounds {
		passes[i] = fmt.Sprintf("%.3f", rr.pass.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, pass seconds %s\n", name, seed, len(rounds),
		strings.Join(passes, " "))

	// Every result was checked against the oracle; the ones that disagreed
	// are counted in Failed, so the rest are correct.
	res := &Result{Correct: true, Metrics: map[string]metricValue{}}
	for _, rr := range rounds {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
	}
	if traced {
		layers.finish(rounds)
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{layers.metrics[d.Name], d.Unit}
		}
		if err := writeTraceFiles(name, seed, rec, tracer, layers); err != nil {
			return nil, err
		}
		return res, nil
	}
	e2e := endToEndMetrics(rounds[1:])
	e2e["setup_s"] = setupS
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
	}
	return res, nil
}

// setup generates the dataset (and, for tpch-spill, calibrates the spill
// thresholds) setupRepeats times and returns the times in seconds.
func (b *bench) setup(w workload) ([]float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		b.d = nil
		runtime.GC()
		start := time.Now()
		b.d = tpch.Load(scaleFactor, baseBlockBytes, storage.ColumnStore)
		if w.calibrate {
			if err := b.calibrate(); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// calibrate runs every query once at the blocking end without a spill tier
// and sets its threshold to a quarter of its peak live temp bytes. At one
// worker the peak is deterministic.
func (b *bench) calibrate() error {
	b.thresholds = map[int]int64{}
	for _, q := range b.queries {
		bld, err := tpch.Build(b.d, q, tpch.QueryOpts{})
		if err != nil {
			return err
		}
		res, err := engine.Execute(bld, engine.Options{Workers: 1, UoTBlocks: core.UoTTable})
		if err != nil {
			return fmt.Errorf("calibrating Q%d: %w", q, err)
		}
		b.thresholds[q] = res.Run.Intermediates.High() / 4
	}
	return nil
}

// check compares a result with the oracle and applies the per-query
// property checks. It returns "" when the query passes.
func (b *bench) check(q int, rows [][]types.Datum, run *stats.Run) string {
	a := b.oracle[q]
	if err := Check(a.Spec, a.Rows, fromDatums(rows)); err != nil {
		return "result disagrees with oracle: " + err.Error()
	}
	if rb := run.Robust(); rb.LeakedBlocks != 0 || rb.OutstandingRefs != 0 {
		return fmt.Sprintf("leaked %d blocks and %d block refs", rb.LeakedBlocks, rb.OutstandingRefs)
	}
	return ""
}

// direct runs one query through engine.Execute and checks it.
func (b *bench) direct(q int, opts engine.Options, rec *recorder, parent int) (queryExec, string) {
	x := queryExec{q: q}
	qid := rec.id()
	t0 := time.Now()
	bld, err := tpch.Build(b.d, q, tpch.QueryOpts{})
	if err != nil {
		return x, err.Error()
	}
	t1 := time.Now()
	opts.TraceLabel = fmt.Sprintf("Q%d", q)
	res, err := engine.Execute(bld, opts)
	if err != nil {
		return x, "execute: " + err.Error()
	}
	t2 := time.Now()
	rows := engine.Rows(res.Table)
	t3 := time.Now()
	rec.add(span{ID: qid, Parent: parent, Name: "query", Query: q, Start: t0, End: t3})
	rec.add(span{ID: rec.id(), Parent: qid, Name: "plan", Query: q, Start: t0, End: t1})
	rec.add(span{ID: rec.id(), Parent: qid, Name: "execute", Query: q, Start: t1, End: t2})
	rec.add(span{ID: rec.id(), Parent: qid, Name: "result", Query: q, Start: t2, End: t3})
	x.ok, x.run = true, res.Run
	x.peakTemp, x.peakHash = res.Run.Intermediates.High(), res.Run.HashTables.High()
	x.plan, x.execute, x.result, x.latency = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	return x, b.check(q, rows, res.Run)
}

// sequentialRound runs the queries one at a time in the round's order;
// after, if set, is a property check run after each query that passed.
func (b *bench) sequentialRound(r int, rec *recorder, opts func(q int) engine.Options,
	after func() string) roundResult {
	var rr roundResult
	rid := rec.id()
	start := time.Now()
	for _, q := range b.order(r, 0) {
		o := opts(q)
		x, failure := b.direct(q, o, rec, rid)
		if failure == "" && after != nil {
			failure = after()
		}
		rr.add(x, failure, b, r)
		rr.pass += x.latency
		rr.workerTime += x.execute * time.Duration(o.Workers)
	}
	rec.add(span{ID: rid, Name: "round", Query: -1, Start: start, End: time.Now()})
	return rr
}

// powerRound is tpch-power: one query at a time with the program's
// defaults, UoT 1 (the pipelining end) at one worker. At more than one
// worker the block emitter's single-retry append (core.Emitter.AppendRow,
// AppendFrom, AppendRaw) now and then drops a row, in a different query
// each time (2 of about 12,300 executions at SF 0.1). Two sets of runs of
// the same code must fail exactly the same share of operations, and a
// failure that comes and goes breaks that. Run it at Workers = nproc once
// the emitter is mended.
func (b *bench) powerRound(r int, rec *recorder, tr *trace.Tracer) roundResult {
	return b.sequentialRound(r, rec, func(int) engine.Options {
		return engine.Options{Workers: 1, Trace: tr}
	}, nil)
}

// spillRound is tpch-spill: one query at a time at Workers = 1 and the
// blocking unit of transfer, with a spill tier throttled to a quarter of
// the query's unconstrained peak.
func (b *bench) spillRound(r int, rec *recorder, tr *trace.Tracer) roundResult {
	return b.sequentialRound(r, rec, func(q int) engine.Options {
		return engine.Options{Workers: 1, UoTBlocks: core.UoTTable, SpillDir: b.spillDir,
			SpillThreshold: b.thresholds[q], Trace: tr}
	}, func() string {
		entries, err := os.ReadDir(b.spillDir)
		if err != nil {
			return "reading spill directory: " + err.Error()
		}
		if len(entries) != 0 {
			return fmt.Sprintf("%d entries left in the spill directory", len(entries))
		}
		return ""
	})
}

// serveRound is tpch-serve: nproc closed-loop clients, each submitting the
// 22 queries (LIP plans) in its own seeded order to one session. The
// round's last operation is the drain check.
func (b *bench) serveRound(r int, rec *recorder, tr *trace.Tracer) roundResult {
	sess := b.sess
	if tr != nil {
		sess = b.tracedSess
	}
	var rr roundResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	c0 := sess.Counters()
	rid := rec.id()
	start := time.Now()
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, q := range b.order(r, c+1) {
				x, failure := b.submit(sess, q, rec, rid)
				mu.Lock()
				rr.add(x, failure, b, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rr.pass = time.Since(start)
	rec.add(span{ID: rid, Name: "round", Query: -1, Start: start, End: time.Now()})
	rr.workerTime = rr.pass * time.Duration(b.nproc)
	drain := ""
	if live, pending := sess.Live(), sess.PendingPartials(); live != 0 || pending != 0 {
		drain = fmt.Sprintf("session not drained: %d live temp bytes, %d pending partials", live, pending)
	}
	rr.attempted++
	if drain != "" {
		rr.failed++
		fmt.Fprintf(os.Stderr, "FAILED workload=%s round=%d drain: %s\n", b.name, r, drain)
	}
	c1 := sess.Counters()
	rr.admitted = c1.Admitted - c0.Admitted
	rr.shed = (c1.RejectedQueueFull + c1.RejectedOverBudget + c1.RejectedDeadline) -
		(c0.RejectedQueueFull + c0.RejectedOverBudget + c0.RejectedDeadline)
	return rr
}

// submit runs one query through the session and checks it.
func (b *bench) submit(sess *session.Session, q int, rec *recorder, parent int) (queryExec, string) {
	x := queryExec{q: q}
	qid := rec.id()
	var plan time.Duration
	t0 := time.Now()
	resp, err := sess.Submit(session.Request{
		Label: fmt.Sprintf("Q%d", q),
		Build: func() *engine.Builder {
			tp := time.Now()
			// q comes from tpch.Numbers, so the build cannot fail.
			bld := tpch.MustBuild(b.d, q, tpch.QueryOpts{LIP: true})
			plan = time.Since(tp)
			return bld
		},
	})
	if err != nil {
		return x, "submit: " + err.Error()
	}
	t1 := time.Now()
	rows := engine.Rows(resp.Table)
	t2 := time.Now()
	rec.add(span{ID: qid, Parent: parent, Name: "query", Query: q, Start: t0, End: t2})
	rec.add(span{ID: rec.id(), Parent: qid, Name: "plan", Query: q, Start: t0, End: t0.Add(plan)})
	rec.add(span{ID: rec.id(), Parent: qid, Name: "execute", Query: q, Start: t0.Add(plan), End: t1})
	rec.add(span{ID: rec.id(), Parent: qid, Name: "result", Query: q, Start: t1, End: t2})
	x.ok, x.run = true, resp.Run
	x.peakTemp, x.peakHash = resp.Run.Intermediates.High(), resp.Run.HashTables.High()
	x.plan, x.execute, x.result, x.latency = plan, t1.Sub(t0)-plan, t2.Sub(t1), t2.Sub(t0)
	x.queued, x.elapsed = resp.Queued, resp.Elapsed
	return x, b.check(q, rows, resp.Run)
}

// endToEndMetrics reduces the measured rounds to the end-to-end metrics.
// Times are medians over rounds: of the round's pass time, and of each
// query's latency. The geometric mean and the latency percentiles are taken
// over the 22 per-query medians. Every query is equally frequent in a round,
// so those medians are the round's latency mix with each query's run-to-run
// jitter removed; a percentile of the raw latencies sits in the sparse tail
// between the two longest queries (Q1, Q21: 9% of executions) and the rest,
// and moved by up to a third between runs of the same code.
func endToEndMetrics(rounds []roundResult) map[string]float64 {
	var passes []float64
	perQuery := map[int][]float64{}
	temp, hash := map[int][]float64{}, map[int][]float64{}
	var total time.Duration
	var n int
	for _, rr := range rounds {
		passes = append(passes, rr.pass.Seconds())
		total += rr.pass
		for _, x := range rr.execs {
			perQuery[x.q] = append(perQuery[x.q], float64(x.latency)/1e6)
			temp[x.q] = append(temp[x.q], float64(x.peakTemp))
			hash[x.q] = append(hash[x.q], float64(x.peakHash))
			n++
		}
	}
	var medians []float64
	logSum, peakTemp, peakHash := 0.0, 0.0, 0.0
	for q, v := range perQuery {
		m := median(v)
		medians = append(medians, m)
		logSum += math.Log(m)
		peakTemp += median(temp[q])
		peakHash += median(hash[q])
	}
	return map[string]float64{
		"pass_s":         median(passes),
		"geomean_ms":     math.Exp(logSum / float64(len(perQuery))),
		"latency_p50_ms": percentile(medians, 0.50),
		"latency_p90_ms": percentile(medians, 0.90),
		"qps":            float64(n) / total.Seconds(),
		"peak_temp_mib":  peakTemp / mib,
		"peak_hash_mib":  peakHash / mib,
	}
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

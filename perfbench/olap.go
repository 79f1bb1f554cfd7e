package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"qpi"
	"qpi/internal/sql"
)

// preparedShape is a shape (or serve class) prepared in the library,
// with its reference answer.
type preparedShape struct {
	shape
	prep *qpi.Prepared
	ref  reference
}

// reference is the answer of the tuple path with WithoutEstimators():
// row count, Σ K_i (Metrics().Tuples) and the result checksum.
type reference struct {
	rows, tuples int64
	sum          checksum
	float        []bool // float columns of the result
}

// runMode is one way of executing a request.
type runMode struct {
	name string
	opts []qpi.CompileOption
	// progress installs a WithProgress callback at the default interval;
	// timeReport times one Query.Report() call per callback, or one after
	// the run when there is no callback.
	progress, timeReport bool
	// traced binds a fresh tracer to the run.
	traced bool
	// rows materialises the result with RowsContext instead of Run.
	rows bool
}

// runStats is what one request measured.
type runStats struct {
	compile, run time.Duration
	ok           bool
	m            qpi.Metrics
	maeSum       float64
	maeN         int
	ticks        int
	reportNs     int64
	reports      int
	spans        map[string]time.Duration
	rows         [][]any
}

func (s runStats) total() time.Duration { return s.compile + s.run }

func (s *runStats) timeReport(q *qpi.Query) {
	t := time.Now()
	_ = q.Report()
	s.reportNs += time.Since(t).Nanoseconds()
	s.reports++
}

type progPoint struct{ p, c float64 }

// execute runs one request of the shape in the given mode and checks
// its answer: terminal state done, row count, Σ K_i and, when rows are
// materialised, the checksum.
func (s *preparedShape) execute(m runMode, r *report, pts []progPoint) (runStats, []progPoint) {
	var st runStats
	start := time.Now()
	q, err := s.prep.NewQuery(m.opts...)
	st.compile = time.Since(start)
	if err != nil {
		r.refuse("%s [%s]: compile: %v", s.name, m.name, err)
		return st, pts
	}
	var opts []qpi.RunOption
	pts = pts[:0]
	if m.progress {
		opts = append(opts, qpi.WithProgress(func(rep qpi.Report) {
			pts = append(pts, progPoint{rep.Progress, rep.C})
			if m.timeReport {
				st.timeReport(q)
			}
		}, progressEvery))
	}
	var tr *qpi.Tracer
	if m.traced {
		tr = qpi.NewTracer()
		opts = append(opts, qpi.WithTrace(tr))
	}
	var n int64
	var rows [][]any
	runStart := time.Now()
	if m.rows {
		rows, err = q.RowsContext(context.Background())
		n = int64(len(rows))
	} else {
		n, err = q.Run(context.Background(), opts...)
	}
	st.run = time.Since(runStart)
	if m.timeReport && !m.progress {
		st.timeReport(q)
	}
	st.rows = rows
	st.m = q.Metrics()
	st.ticks = len(pts)
	ok := err == nil && st.m.State == "done" && n == s.ref.rows && st.m.Tuples == s.ref.tuples
	if ok && m.rows {
		ok = checksumOf(rows, s.ref.float).equal(s.ref.sum)
	}
	st.ok = r.check(ok, "%s [%s]: err=%v state=%s rows=%d/%d tuples=%d/%d",
		s.name, m.name, err, st.m.State, n, s.ref.rows, st.m.Tuples, s.ref.tuples)
	if len(pts) > 0 {
		final := pts[len(pts)-1].c
		for _, p := range pts {
			if final > 0 {
				st.maeSum += math.Abs(p.p - p.c/final)
				st.maeN++
			}
		}
	}
	if tr != nil {
		st.spans = spanSelfTimes(tr.Events())
	}
	return st, pts
}

type olapEnv struct {
	eng    *qpi.Engine
	shapes []*preparedShape
}

func setupOLAP(seed int64, shapes []shape) (*olapEnv, error) {
	eng, err := loadEngine(seed)
	if err != nil {
		return nil, err
	}
	env := &olapEnv{eng: eng}
	for _, s := range shapes {
		p, err := eng.Prepare(s.sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", s.name, err)
		}
		env.shapes = append(env.shapes, &preparedShape{shape: s, prep: p})
	}
	return env, nil
}

// verifyOLAP computes each shape's reference on the tuple path without
// estimators, then runs the shape once through RowsContext on the
// workload's tier and compares the checksums. It also warms the caches
// before anything is timed.
func verifyOLAP(env *olapEnv, tier []qpi.CompileOption, r *report) error {
	for _, s := range env.shapes {
		q, err := s.prep.NewQuery(qpi.WithoutEstimators())
		if err != nil {
			return fmt.Errorf("reference %s: %w", s.name, err)
		}
		rows, err := q.RowsContext(context.Background())
		if err != nil {
			return fmt.Errorf("reference %s: %w", s.name, err)
		}
		float := floatColumns(rows)
		s.ref = reference{rows: int64(len(rows)), tuples: q.Metrics().Tuples, sum: checksumOf(rows, float), float: float}
		r.check(len(rows) > 0, "%s: empty result", s.name)
		st, _ := s.execute(runMode{name: "verify", opts: tier, rows: true}, r, nil)
		note("verify %-13s %s tuples=%d tier-checksum-ok=%v", s.name, s.ref.sum, s.ref.tuples, st.ok)
	}
	return nil
}

func runOLAP(o options, r *report, batch bool) error {
	var tier []qpi.CompileOption
	if batch {
		tier = []qpi.CompileOption{qpi.WithBatchExecution(batchWorkers)}
	}
	rng := rand.New(rand.NewSource(o.seed))
	shapes := preparedShapes(rng)
	env, times, err := setupTimes(func() (*olapEnv, error) { return setupOLAP(o.seed, shapes) },
		func(*olapEnv) {})
	if err != nil {
		return err
	}
	r.add("setup_s", median(times), "s", len(times))
	if err := verifyOLAP(env, tier, r); err != nil {
		return err
	}
	if o.trace {
		return traceOLAP(o, r, env, tier, rng)
	}

	mode := runMode{name: "request", opts: tier, progress: true}
	lat := make([][]float64, len(env.shapes))
	var all, passRates []float64
	var maeSum float64
	var maeN int
	var pts []progPoint
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		passStart := time.Now()
		done := 0
		for _, i := range rng.Perm(len(env.shapes)) {
			var st runStats
			st, pts = env.shapes[i].execute(mode, r, pts)
			if !st.ok {
				continue
			}
			ms := float64(st.total()) / 1e6
			lat[i] = append(lat[i], ms)
			all = append(all, ms)
			maeSum += st.maeSum
			maeN += st.maeN
			done++
		}
		passRates = append(passRates, float64(done)/time.Since(passStart).Seconds())
	}
	if len(all) == 0 {
		return fmt.Errorf("no request completed")
	}
	var p50s []float64
	for i, s := range env.shapes {
		p50 := median(lat[i])
		p50s = append(p50s, p50)
		r.add(s.name+".p50_ms", p50, "ms", len(lat[i]))
	}
	// Throughput is the median over passes of the mix, so that a burst
	// of load from outside the benchmark moves one pass, not the result.
	r.add("throughput_qps", median(passRates), "1/s", len(all))
	r.add("latency_p50_ms", geomean(p50s), "ms", len(all))
	// The tail is the highest percentile with about ten samples beyond
	// it at this run length: p90 of the mix.
	tail := quantile(all, 0.9)
	r.add("latency_p90_ms", tail, "ms", len(all))
	r.add("latency_tail_ms", tail, "ms", len(all))
	r.add("progress_mae", maeSum/float64(max(maeN, 1)), "fraction", maeN)
	return nil
}

// traceOLAP is the traced run of an olap workload: interleaved rounds of
// A/B passes over the mix, each pass switching one option against the
// request as users run it.
func traceOLAP(o options, r *report, env *olapEnv, tier []qpi.CompileOption, rng *rand.Rand) error {
	noEst := append(append([]qpi.CompileOption(nil), tier...), qpi.WithoutEstimators())
	modes := []runMode{
		{name: "full", opts: tier, progress: true, timeReport: true},
		{name: "noprog", opts: tier},
		{name: "bare", opts: noEst},
		{name: "traced", opts: noEst, traced: true},
		{name: "rows", opts: tier, rows: true},
	}
	ns := len(env.shapes)
	// per mode, per shape: run and compile samples (ms) and span self times.
	runMs := map[string][][]float64{}
	compileMs := make([][]float64, ns)
	phaseMs := map[string][][]float64{}
	for _, m := range modes {
		runMs[m.name] = make([][]float64, ns)
	}
	scanMs := make([][]float64, ns)
	var parseUs, prepareUs []float64
	var full struct {
		requests                  int
		mem                       memDelta
		ticks, reportNs, reports  int64
		maeSum                    float64
		maeN                      int
		getnext, batches, rec, hp int64
	}
	var pts []progPoint
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	rounds := 0
	for rounds < 2 || time.Now().Before(deadline) {
		rounds++
		for _, mi := range rng.Perm(len(modes)) {
			m := modes[mi]
			before := memNow()
			for _, i := range rng.Perm(ns) {
				var st runStats
				st, pts = env.shapes[i].execute(m, r, pts)
				if !st.ok {
					continue
				}
				runMs[m.name][i] = append(runMs[m.name][i], float64(st.run)/1e6)
				switch m.name {
				case "full":
					compileMs[i] = append(compileMs[i], float64(st.compile)/1e6)
					full.requests++
					full.ticks += int64(st.ticks)
					full.reportNs += st.reportNs
					full.reports += int64(st.reports)
					full.maeSum += st.maeSum
					full.maeN += st.maeN
					full.getnext += st.m.Tuples
					full.batches += st.m.Batches
					full.rec += st.m.EstimatorRecomputes
					full.hp += st.m.HistogramProbes
				case "traced":
					for _, c := range []string{phasePartition, phaseJoin, phaseAggregate, phaseEmit} {
						if phaseMs[c] == nil {
							phaseMs[c] = make([][]float64, ns)
						}
						phaseMs[c][i] = append(phaseMs[c][i], float64(st.spans[c])/1e6)
					}
				}
			}
			if m.name == "full" {
				d := memNow().since(before)
				full.mem.alloc += d.alloc
				full.mem.pauseNs += d.pauseNs
			}
		}
		for i, s := range env.shapes {
			var total float64
			for _, q := range s.scans {
				ms, err := timeScan(env.eng, q, noEst, r)
				if err != nil {
					return err
				}
				total += ms
			}
			scanMs[i] = append(scanMs[i], total)
			t := time.Now()
			if _, err := sql.Parse(s.sql); err != nil {
				return fmt.Errorf("parse %s: %w", s.name, err)
			}
			parseUs = append(parseUs, float64(time.Since(t))/1e3)
			t = time.Now()
			if _, err := env.eng.Prepare(s.sql); err != nil {
				return fmt.Errorf("prepare %s: %w", s.name, err)
			}
			prepareUs = append(prepareUs, float64(time.Since(t))/1e3)
		}
	}
	if full.requests == 0 {
		return fmt.Errorf("no traced request completed")
	}
	note("trace rounds=%d (each round runs every mode over the whole mix)", rounds)

	// Per-shape medians over rounds; a mix quantity is their mean over
	// shapes (each shape is one request of a pass).
	med := func(xs [][]float64, i int) float64 { return median(xs[i]) }
	mixMean := func(xs [][]float64) float64 {
		var s float64
		for i := range xs {
			s += med(xs, i)
		}
		return s / float64(ns)
	}
	for i, s := range env.shapes {
		note("shape %-13s run ms: full %.1f noprog %.1f bare %.1f traced %.1f rows %.1f scan %.1f",
			s.name, med(runMs["full"], i), med(runMs["noprog"], i), med(runMs["bare"], i),
			med(runMs["traced"], i), med(runMs["rows"], i), med(scanMs, i))
	}
	fullRun, noprogRun, bareRun := mixMean(runMs["full"]), mixMean(runMs["noprog"]), mixMean(runMs["bare"])
	tracedRun, rowsRun := mixMean(runMs["traced"]), mixMean(runMs["rows"])
	compile := mixMean(compileMs)
	passes := float64(full.requests) / float64(ns)

	// sql and plan: statements are prepared once at set-up, so their
	// per-request share is the prepare time spread over the requests.
	perReq := float64(ns) / float64(full.requests)
	parse := mean(parseUs) * perReq
	prepare := (mean(prepareUs) - mean(parseUs)) * perReq
	note("per Prepare: sql.parse %.1f us, plan (rest of Prepare) %.1f us", mean(parseUs), mean(prepareUs)-mean(parseUs))
	r.add("sql.parse_us", parse, "us", len(parseUs))
	r.add("plan.prepare_us", prepare, "us", len(prepareUs))
	r.add("qpi.compile_us", compile*1e3, "us", full.requests)
	r.add("qpi.materialise_ms", rowsRun-noprogRun, "ms", rounds*ns)

	// exec: span self times from the traced estimator-off pass, rescaled
	// to the untraced estimator-off run time; scan time comes from the
	// scan-only queries and is taken out of the spans that pull scans.
	scale := bareRun / tracedRun
	scan := mixMean(scanMs)
	phase := map[string]float64{}
	for c := range phaseMs {
		phase[c] = mixMean(phaseMs[c]) * scale
	}
	for i, s := range env.shapes {
		if s.scanIn != "" {
			phase[s.scanIn] -= med(scanMs, i) / float64(ns)
		}
	}
	r.add("exec.scan_ms", scan, "ms", rounds*ns)
	r.add("exec.partition_ms", phase[phasePartition], "ms", rounds*ns)
	r.add("exec.join_ms", phase[phaseJoin], "ms", rounds*ns)
	r.add("exec.aggregate_ms", phase[phaseAggregate], "ms", rounds*ns)
	r.add("exec.emit_ms", phase[phaseEmit], "ms", rounds*ns)
	r.add("exec.getnext", float64(full.getnext)/passes, "count", full.requests)
	r.add("exec.batches", float64(full.batches)/passes, "count", full.requests)

	r.add("core.overhead_ratio", noprogRun/bareRun, "ratio", rounds*ns)
	r.add("core.recomputes", float64(full.rec)/passes, "count", full.requests)
	r.add("core.histogram_probes", float64(full.hp)/passes, "count", full.requests)
	r.add("progress.ticks", float64(full.ticks)/passes, "count", full.requests)
	r.add("progress.report_us", float64(full.reportNs)/1e3/float64(max(full.reports, 1)), "us", int(full.reports))
	r.add("progress.mae", full.maeSum/float64(max(full.maeN, 1)), "fraction", full.maeN)
	r.add("spill.bytes", 0, "bytes", full.requests)
	r.add("spill.files", 0, "count", full.requests)
	r.add("service.plan_cache_hit_rate", 0, "fraction", 0)
	r.add("go.alloc_mb_per_query", float64(full.mem.alloc)/(1<<20)/float64(full.requests), "MB", full.requests)
	r.add("go.gc_pause_ms", float64(full.mem.pauseNs)/1e6/float64(full.requests), "ms", full.requests)
	r.add("obs.trace_overhead_ratio", tracedRun/bareRun, "ratio", rounds*ns)

	l := newLedger(compile + fullRun)
	l.add("sql+plan (amortised)", (parse+prepare)/1e3)
	l.add("qpi.compile", compile)
	l.add("progress (full - noprog)", fullRun-noprogRun)
	l.add("core (noprog - bare)", noprogRun-bareRun)
	l.add("exec.scan", scan)
	for _, c := range []string{phasePartition, phaseJoin, phaseAggregate, phaseEmit} {
		l.add("exec."+c, phase[c])
	}
	l.print(r, full.requests)
	return nil
}

// timeScan runs one scan-only COUNT(*) query and returns its run time.
func timeScan(eng *qpi.Engine, text string, opts []qpi.CompileOption, r *report) (float64, error) {
	q, err := eng.Query(text, opts...)
	if err != nil {
		return 0, fmt.Errorf("scan %q: %w", text, err)
	}
	start := time.Now()
	n, err := q.Run(context.Background())
	ms := float64(time.Since(start)) / 1e6
	r.check(err == nil && n == 1, "scan %q: err=%v rows=%d", text, err, n)
	return ms, nil
}

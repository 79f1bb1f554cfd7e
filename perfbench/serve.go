package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qpi"
	"qpi/internal/service"
	"qpi/internal/sql"
)

// serve-mix settings. The service runs with admission control on (a
// global spill budget partitioned into per-query grants) behind its
// HTTP handler on a loopback listener in this process; the client uses
// at most serveConns connections.
const (
	serveConns        = 2
	serveGlobalBudget = 256 << 20
	serveQueryBudget  = 64 << 20
	// spillBudget is the spill class's per-request budget_bytes: small
	// enough that its join's partitions overflow to spill files.
	spillBudget = 64 << 10
	lookupSpan  = 20
	// openRate is the open-loop phase's fixed offered rate, a little over
	// a third of the closed-loop capacity measured at the commit that
	// introduced the benchmark (see NOTES.md). It stays fixed so that two
	// commits are offered the same load.
	openRate float64 = 35
	// The run alternates serveCycles times between a closed-loop
	// capacity phase, closedShare of each cycle, and the open-loop phase.
	serveCycles = 4
	closedShare = 4.0 / 28
	// A generator whose sends ran later than maxGenLate at the 99th
	// percentile, or that ends its phase with more than maxBacklog
	// requests due but not answered, fell behind: the run is invalid.
	maxGenLate = 100 * time.Millisecond
	maxBacklog = 10
)

// serveClass is one request class of serve-mix.
type serveClass struct {
	shape
	weight float64
	budget int64
	miss   bool // literal varies per request, so the plan cache misses
	ref    reference
}

func serveClasses(rng *rand.Rand) []*serveClass {
	dateLo := 19920101 + rng.Intn(2400)
	dateHi := dateLo + 100
	return []*serveClass{
		{
			shape: shape{name: "lookup",
				sql:   "SELECT orderkey, custkey, totalprice FROM orders WHERE orderkey BETWEEN %d AND %d",
				scans: []string{"SELECT COUNT(*) FROM orders WHERE orderkey BETWEEN 1 AND 20"}},
			weight: 0.40, miss: true,
		},
		{
			shape: shape{name: "cached_agg",
				sql: `SELECT n.regionkey, COUNT(*) AS customers, SUM(c.acctbal) AS balance
FROM customer c JOIN nation n ON c.nationkey = n.nationkey GROUP BY n.regionkey`,
				scans: []string{"SELECT COUNT(*) FROM customer", "SELECT COUNT(*) FROM nation"}, scanIn: phasePartition},
			weight: 0.30,
		},
		{
			shape: shape{name: "rows_join",
				sql: fmt.Sprintf(`SELECT o.orderkey, o.orderdate, c.nationkey, o.totalprice
FROM orders o JOIN customer c ON o.custkey = c.custkey
WHERE o.orderdate BETWEEN %d AND %d`, dateLo, dateHi),
				scans: []string{fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE orderdate BETWEEN %d AND %d", dateLo, dateHi),
					"SELECT COUNT(*) FROM customer"}, scanIn: phasePartition},
			weight: 0.26,
		},
		{
			shape: shape{name: "spill_join",
				sql: `SELECT c.nationkey, COUNT(*) AS n, SUM(o.totalprice) AS total
FROM customer c JOIN orders o ON c.custkey = o.custkey GROUP BY c.nationkey`,
				scans: []string{"SELECT COUNT(*) FROM customer", "SELECT COUNT(*) FROM orders"}, scanIn: phasePartition},
			weight: 0.04, budget: spillBudget,
		},
	}
}

type serveEnv struct {
	eng     *qpi.Engine
	svc     *service.Service
	srv     *http.Server
	served  chan struct{} // closed when srv.Serve returns
	url     string
	fs      *spillFS
	client  *http.Client
	classes []*serveClass
	orders  map[int64][]any // orderkey -> row, the lookup class's reference
	nOrders int
	// ordersFloat marks the float columns of the lookup's rows.
	ordersFloat []bool
}

func setupServe(seed int64, spillDir string, classes []*serveClass) (*serveEnv, error) {
	eng, err := loadEngine(seed)
	if err != nil {
		return nil, err
	}
	fs := &spillFS{dir: spillDir}
	svc, err := service.New(service.Config{Engine: eng, GlobalBudget: serveGlobalBudget,
		QueryBudget: serveQueryBudget, SpillFS: fs})
	if err != nil {
		return nil, err
	}
	for _, c := range classes {
		if !c.miss {
			if _, err := svc.Prepare(c.sql); err != nil {
				return nil, fmt.Errorf("prepare %s: %w", c.name, err)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{eng: eng, svc: svc, fs: fs, classes: classes, served: make(chan struct{}),
		srv: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String()}
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	return e, nil
}

// close stops the HTTP server and the service and waits for both.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.client.CloseIdleConnections()
	err := e.srv.Shutdown(ctx)
	<-e.served
	return errors.Join(err, e.svc.Shutdown(ctx))
}

// job is one request to send.
type job struct {
	class *serveClass
	sql   string
	want  reference
	due   time.Time
}

// dealer draws request classes from shuffled decks of deckSize
// requests in which each class appears weight × deckSize times, so every
// stretch of requests carries the mix's exact proportions and p50 and
// p99 stay inside the classes the weights put them in.
type dealer struct {
	rng  *rand.Rand
	deck []*serveClass
	next int
}

const deckSize = 50

func (e *serveEnv) newDealer(seed int64) *dealer {
	d := &dealer{rng: rand.New(rand.NewSource(seed))}
	for _, c := range e.classes {
		for i := 0; i < int(math.Round(c.weight*deckSize)); i++ {
			d.deck = append(d.deck, c)
		}
	}
	d.next = len(d.deck)
	return d
}

func (e *serveEnv) newJob(d *dealer) job {
	if d.next == len(d.deck) {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.next = 0
	}
	c := d.deck[d.next]
	d.next++
	if !c.miss {
		return job{class: c, sql: c.sql, want: c.ref}
	}
	lo := 1 + d.rng.Intn(e.nOrders-lookupSpan+1)
	return job{class: c, sql: fmt.Sprintf(c.sql, lo, lo+lookupSpan-1), want: e.lookupWant(lo)}
}

func (e *serveEnv) lookupWant(lo int) reference {
	var sum checksum
	for k := lo; k < lo+lookupSpan; k++ {
		sum.addRow(e.orders[int64(k)], e.ordersFloat)
	}
	return reference{rows: lookupSpan, sum: sum, float: e.ordersFloat}
}

// outcome is one answered request.
type outcome struct {
	ok                    bool
	latency, queued, exec time.Duration
}

type queryResponse struct {
	State     string  `json:"state"`
	Error     string  `json:"error"`
	Rows      int64   `json:"rows"`
	Data      [][]any `json:"data"`
	QueuedMs  float64 `json:"queued_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// send posts one query and checks the answer by row count and the
// checksum of data. Latency runs from start to the decoded response.
func (e *serveEnv) send(j job, start time.Time, r *report) outcome {
	body, err := json.Marshal(map[string]any{"sql": j.sql, "want_rows": true, "budget_bytes": j.class.budget})
	if err != nil {
		r.refuse("%s: encode request: %v", j.class.name, err)
		return outcome{}
	}
	resp, err := e.client.Post(e.url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		r.refuse("%s: %v", j.class.name, err)
		return outcome{}
	}
	var res queryResponse
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	out := outcome{latency: time.Since(start),
		queued: time.Duration(res.QueuedMs * 1e6), exec: time.Duration(res.ElapsedMs * 1e6)}
	out.ok = err == nil && resp.StatusCode == http.StatusOK && res.State == "done" &&
		res.Rows == j.want.rows && checksumOf(res.Data, j.want.float).equal(j.want.sum)
	r.check(out.ok, "%s: http=%d err=%v state=%s error=%q rows=%d/%d",
		j.class.name, resp.StatusCode, err, res.State, res.Error, res.Rows, j.want.rows)
	return out
}

// phase collects the answered requests of one load phase.
type phase struct {
	mu      sync.Mutex
	byClass map[string][]outcome
	all     []float64 // latency ms
}

func newPhase() *phase { return &phase{byClass: map[string][]outcome{}} }

func (p *phase) record(j job, o outcome) {
	if !o.ok {
		return
	}
	p.mu.Lock()
	p.byClass[j.class.name] = append(p.byClass[j.class.name], o)
	p.all = append(p.all, float64(o.latency)/1e6)
	p.mu.Unlock()
}

// count returns the number of answered requests recorded.
func (p *phase) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// closedLoop keeps serveConns clients busy for d, each sending its next
// request when the previous one is answered, and returns the answers per
// second. Answers are recorded in p.
func (e *serveEnv) closedLoop(p *phase, d time.Duration, seed int64, r *report) float64 {
	before := p.count()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(d *dealer) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := e.newJob(d)
				p.record(j, e.send(j, time.Now(), r))
			}
		}(e.newDealer(seed*1000 + int64(w)))
	}
	wg.Wait()
	return float64(p.count()-before) / time.Since(start).Seconds()
}

// openLoop offers openRate requests per second on a fixed schedule for
// d, whatever the service's progress. Each request is timed from the
// moment it was due, so a stall also counts against the requests queued
// behind it. It returns how late the generator sent (ms) and the
// backlog — requests due but unanswered — when the schedule ended.
// Answers are recorded in p.
func (e *serveEnv) openLoop(p *phase, d time.Duration, deal *dealer, r *report) ([]float64, int64) {
	n := int(d.Seconds() * openRate)
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p.record(j, e.send(j, j.due, r))
				answered.Add(1)
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	gap := time.Duration(math.Round(1e9 / openRate))
	late := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		j := e.newJob(deal)
		j.due = start.Add(time.Duration(i) * gap)
		time.Sleep(time.Until(j.due))
		late = append(late, float64(time.Since(j.due))/1e6)
		jobs <- j
	}
	time.Sleep(time.Until(start.Add(time.Duration(n) * gap)))
	backlog := int64(n) - answered.Load()
	close(jobs)
	wg.Wait()
	return late, backlog
}

// verifyServe computes the references on the tuple path without
// estimators, runs each class once through RowsContext as the service
// compiles it, and scores the progress the classes publish on that
// tier (the serve-mix progress_mae).
func verifyServe(e *serveEnv, r *report) (float64, int, error) {
	q, err := e.eng.Query("SELECT orderkey, custkey, totalprice FROM orders", qpi.WithoutEstimators())
	if err != nil {
		return 0, 0, err
	}
	rows, err := q.RowsContext(context.Background())
	if err != nil {
		return 0, 0, err
	}
	e.orders = map[int64][]any{}
	for _, row := range rows {
		e.orders[row[0].(int64)] = row
	}
	e.nOrders = len(rows)
	e.ordersFloat = floatColumns(rows)
	_, first := e.orders[1]
	_, last := e.orders[int64(e.nOrders)]
	r.check(len(e.orders) == e.nOrders && first && last && e.nOrders >= lookupSpan, "orders keys are not 1..n")
	var maeSum float64
	var maeN int
	for i, c := range e.classes {
		s, err := e.libShape(c, 1+i*997%(e.nOrders-lookupSpan))
		if err != nil {
			return 0, 0, err
		}
		if !c.miss {
			c.ref = s.ref
		}
		r.check(s.ref.rows > 0, "%s: empty result", c.name)
		st, _ := s.execute(runMode{name: "verify", opts: e.svcOpts(c), rows: true}, r, nil)
		pr, _ := s.execute(runMode{name: "verify-progress", opts: e.svcOpts(c), progress: true}, r, nil)
		maeSum += pr.maeSum
		maeN += pr.maeN
		note("verify %-13s %s checksum-ok=%v", c.name, s.ref.sum, st.ok)
	}
	return maeSum / float64(max(maeN, 1)), maeN, nil
}

// libShape prepares a class's statement in the library (the lookup
// class with literal lo) and computes its reference answer.
func (e *serveEnv) libShape(c *serveClass, lo int) (*preparedShape, error) {
	s := &preparedShape{shape: c.shape}
	if c.miss {
		s.sql = fmt.Sprintf(c.sql, lo, lo+lookupSpan-1)
	}
	p, err := e.eng.Prepare(s.sql)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", c.name, err)
	}
	s.prep = p
	q, err := p.NewQuery(qpi.WithoutEstimators())
	if err != nil {
		return nil, err
	}
	rows, err := q.RowsContext(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", c.name, err)
	}
	float := floatColumns(rows)
	s.ref = reference{rows: int64(len(rows)), tuples: q.Metrics().Tuples, sum: checksumOf(rows, float), float: float}
	return s, nil
}

// svcOpts are the compile options the service applies to the class:
// its memory grant and the spill filesystem.
func (e *serveEnv) svcOpts(c *serveClass) []qpi.CompileOption {
	grant := c.budget
	if grant == 0 {
		grant = serveQueryBudget
	}
	return []qpi.CompileOption{qpi.WithMemoryBudget(grant), qpi.WithSpillFS(e.fs)}
}

func runServe(o options, r *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	classes := serveClasses(rng)
	env, times, err := setupTimes(func() (*serveEnv, error) { return setupServe(o.seed, o.spillDir, classes) },
		func(e *serveEnv) {
			if err := e.close(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: closing a set-up: %v\n", err)
			}
		})
	if err != nil {
		return err
	}
	r.add("setup_s", median(times), "s", len(times))
	mae, maeN, err := verifyServe(env, r)
	if err != nil {
		return errors.Join(err, env.close())
	}
	if o.trace {
		err = traceServe(o, r, env, rng)
	} else {
		err = measureServe(o, r, env, rng)
	}
	if err != nil {
		return errors.Join(err, env.close())
	}
	if err := env.close(); err != nil {
		return err
	}
	st := env.fs.stats()
	r.check(st.open == 0, "spill: %d descriptors still open after the run", st.open)
	name := "progress_mae"
	if o.trace {
		name = "progress.mae"
	}
	r.add(name, mae, "fraction", maeN)
	return nil
}

func measureServe(o options, r *report, env *serveEnv, rng *rand.Rand) error {
	total := time.Duration(o.seconds * float64(time.Second))
	closedD := time.Duration(float64(total) * closedShare / serveCycles)
	openD := total/serveCycles - closedD
	closed, open := newPhase(), newPhase()
	var rates, late []float64
	var backlog int64
	deal := env.newDealer(rng.Int63())
	for c := 0; c < serveCycles; c++ {
		rates = append(rates, env.closedLoop(closed, closedD, o.seed*serveCycles+int64(c), r))
		l, b := env.openLoop(open, openD, deal, r)
		late = append(late, l...)
		backlog = max(backlog, b)
	}
	if closed.count() == 0 || open.count() == 0 {
		return fmt.Errorf("no request answered")
	}
	note("%d cycles of a %.2fs closed loop then a %.2fs open loop at %.1f req/s, %d connections",
		serveCycles, closedD.Seconds(), openD.Seconds(), openRate, serveConns)
	note("gen.late_ms p50 %.3f p99 %.3f max %.3f (n=%d); gen.backlog at end of schedule %d (largest of %d cycles)",
		quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1), len(late), backlog, serveCycles)
	if quantile(late, 0.99) > float64(maxGenLate)/1e6 || backlog > maxBacklog {
		return fmt.Errorf("INVALID run: the open-loop generator fell behind its schedule (late p99 %.1f ms, backlog %d)",
			quantile(late, 0.99), backlog)
	}
	for _, c := range env.classes {
		var lat []float64
		for _, x := range open.byClass[c.name] {
			lat = append(lat, float64(x.latency)/1e6)
		}
		note("class %-11s weight %.2f  open-loop p50 %.3f ms p90 %.3f ms (n=%d)",
			c.name, c.weight, median(lat), quantile(lat, 0.9), len(lat))
	}
	// Capacity is the median over the cycles' closed loops, which are
	// spread across the run, so that a burst of load from outside the
	// benchmark moves one cycle, not the result.
	capacity := median(rates)
	note("closed loop answers per second by cycle: %.1f", rates)
	r.add("capacity_rps", capacity, "1/s", closed.count())
	r.add("throughput_qps", capacity, "1/s", closed.count())
	r.add("latency_p50_ms", quantile(open.all, 0.5), "ms", len(open.all))
	tail := quantile(open.all, 0.99)
	r.add("latency_p99_ms", tail, "ms", len(open.all))
	r.add("latency_tail_ms", tail, "ms", len(open.all))
	return nil
}

// traceServe is the traced run of serve-mix: a closed-loop phase through
// the service that yields the queue/exec/HTTP split, then interleaved
// library A/B rounds over the same classes to split execution further.
func traceServe(o options, r *report, env *serveEnv, rng *rand.Rand) error {
	total := time.Duration(o.seconds * float64(time.Second))
	cache0, spill0, mem0 := env.svc.Stats().PlanCache, env.fs.stats(), memNow()
	ph := newPhase()
	env.closedLoop(ph, time.Duration(float64(total)*closedShare), o.seed, r)
	cache1, spill, mem := env.svc.Stats().PlanCache, env.fs.stats().minus(spill0), memNow().since(mem0)
	if ph.count() == 0 {
		return fmt.Errorf("traced closed loop: no request answered")
	}
	n := float64(ph.count())
	share := map[string]float64{}
	var lat, queue, exec float64
	for _, c := range env.classes {
		xs := ph.byClass[c.name]
		share[c.name] = float64(len(xs)) / n
		for _, x := range xs {
			lat += float64(x.latency) / 1e6 / n
			queue += float64(x.queued) / 1e6 / n
			exec += float64(x.exec) / 1e6 / n
		}
	}
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	note("service.queue_ms %.4f ms  service.exec_ms %.4f ms  http.other_ms %.4f ms (client latency %.4f ms, n=%d)",
		queue, exec, lat-queue-exec, lat, ph.count())
	note("spill.io_ms %.4f ms per request (write %.1f ms, read %.1f ms, other %.1f ms in total; %d files, %d bytes)",
		float64(spill.io())/1e6/n, float64(spill.writeTime)/1e6, float64(spill.readTime)/1e6, float64(spill.otherTime)/1e6,
		spill.files, spill.written)

	// Library rounds: per class, the request as the service compiles
	// and runs it (svc), without estimators (bare), without estimators
	// and without materialising rows (bareRun), and that traced.
	type acc struct{ compile, svc, bare, bareRun, traced, scan, encode, parse, prepare, reportUs []float64 }
	per := map[string]*acc{}
	phases := map[string]map[string][]float64{}
	spillW, spillR := map[string][]float64{}, map[string][]float64{}
	var getnext, batches, rec, hp float64
	for _, c := range env.classes {
		per[c.name] = &acc{}
		phases[c.name] = map[string][]float64{}
	}
	deadline := time.Now().Add(total - time.Duration(float64(total)*closedShare))
	rounds := 0
	for rounds < 2 || time.Now().Before(deadline) {
		rounds++
		for _, ci := range rng.Perm(len(env.classes)) {
			c := env.classes[ci]
			a := per[c.name]
			text := c.sql
			lo := 1 + rng.Intn(env.nOrders-lookupSpan+1)
			if c.miss {
				text = fmt.Sprintf(c.sql, lo, lo+lookupSpan-1)
			}
			t := time.Now()
			if _, err := sql.Parse(text); err != nil {
				return err
			}
			a.parse = append(a.parse, float64(time.Since(t))/1e3)
			s, err := env.libShape(c, lo)
			if err != nil {
				return err
			}
			t = time.Now()
			if _, err := env.eng.Prepare(s.sql); err != nil {
				return err
			}
			a.prepare = append(a.prepare, float64(time.Since(t))/1e3)
			opts := env.svcOpts(c)
			noEst := append(append([]qpi.CompileOption(nil), opts...), qpi.WithoutEstimators())
			st, _ := s.execute(runMode{name: "svc", opts: opts, rows: true, timeReport: true}, r, nil)
			a.compile = append(a.compile, float64(st.compile)/1e3)
			a.svc = append(a.svc, float64(st.run)/1e6)
			a.reportUs = append(a.reportUs, float64(st.reportNs)/1e3)
			getnext += float64(st.m.Tuples) * share[c.name]
			batches += float64(st.m.Batches) * share[c.name]
			rec += float64(st.m.EstimatorRecomputes) * share[c.name]
			hp += float64(st.m.HistogramProbes) * share[c.name]
			t = time.Now()
			if _, err := json.Marshal(service.ExecResult{State: "done", Rows: int64(len(st.rows)), Columns: s.prep.Columns(), Data: st.rows}); err != nil {
				return err
			}
			a.encode = append(a.encode, float64(time.Since(t))/1e6)
			st, _ = s.execute(runMode{name: "bare", opts: noEst, rows: true}, r, nil)
			a.bare = append(a.bare, float64(st.run)/1e6)
			st, _ = s.execute(runMode{name: "bare-run", opts: noEst}, r, nil)
			a.bareRun = append(a.bareRun, float64(st.run)/1e6)
			before := env.fs.stats()
			st, _ = s.execute(runMode{name: "traced", opts: noEst, traced: true}, r, nil)
			sp := env.fs.stats().minus(before)
			a.traced = append(a.traced, float64(st.run)/1e6)
			spillW[c.name] = append(spillW[c.name], float64(sp.writeTime)/1e6)
			spillR[c.name] = append(spillR[c.name], float64(sp.readTime+sp.otherTime)/1e6)
			for _, k := range []string{phasePartition, phaseJoin, phaseAggregate, phaseEmit} {
				phases[c.name][k] = append(phases[c.name][k], float64(st.spans[k])/1e6)
			}
			var scan float64
			for _, q := range c.scans {
				ms, err := timeScan(env.eng, q, noEst, r)
				if err != nil {
					return err
				}
				scan += ms
			}
			a.scan = append(a.scan, scan)
		}
	}
	note("trace rounds=%d (each round runs every class in every mode)", rounds)

	// Mix-weighted means over classes of per-class medians.
	weighted := func(f func(c *serveClass, a *acc) float64) float64 {
		var s float64
		for _, c := range env.classes {
			s += share[c.name] * f(c, per[c.name])
		}
		return s
	}
	missRate := float64(misses) / float64(max(hits+misses, 1))
	var lookupParse, lookupPrepare float64
	for _, c := range env.classes {
		if c.miss {
			lookupParse, lookupPrepare = median(per[c.name].parse), median(per[c.name].prepare)
		}
		a := per[c.name]
		note("class %-11s share %.3f ms: svc %.3f bare %.3f bare-run %.3f traced %.3f scan %.3f encode %.3f compile %.1f us",
			c.name, share[c.name], median(a.svc), median(a.bare), median(a.bareRun), median(a.traced), median(a.scan),
			median(a.encode), median(a.compile))
	}
	parse := missRate * lookupParse
	prepare := missRate * (lookupPrepare - lookupParse)
	compile := weighted(func(_ *serveClass, a *acc) float64 { return median(a.compile) })
	core := weighted(func(_ *serveClass, a *acc) float64 { return median(a.svc) - median(a.bare) })
	materialise := weighted(func(_ *serveClass, a *acc) float64 { return median(a.bare) - median(a.bareRun) })
	encode := weighted(func(_ *serveClass, a *acc) float64 { return median(a.encode) })
	scan := weighted(func(_ *serveClass, a *acc) float64 { return median(a.scan) })
	svc := weighted(func(_ *serveClass, a *acc) float64 { return median(a.svc) })
	bare := weighted(func(_ *serveClass, a *acc) float64 { return median(a.bare) })
	bareRun := weighted(func(_ *serveClass, a *acc) float64 { return median(a.bareRun) })
	traced := weighted(func(_ *serveClass, a *acc) float64 { return median(a.traced) })
	phase := map[string]float64{}
	for _, k := range []string{phasePartition, phaseJoin, phaseAggregate, phaseEmit} {
		phase[k] = weighted(func(c *serveClass, a *acc) float64 {
			v := median(phases[c.name][k])
			switch k {
			case phasePartition:
				v -= median(spillW[c.name])
			case phaseJoin:
				v -= median(spillR[c.name])
			}
			return v * median(a.bareRun) / median(a.traced)
		})
	}
	for _, k := range []string{phasePartition, phaseAggregate} {
		phase[k] -= weighted(func(c *serveClass, a *acc) float64 {
			if c.scanIn == k {
				return median(a.scan)
			}
			return 0
		})
	}
	spillIO := float64(spill.io()) / 1e6 / n

	r.add("sql.parse_us", parse, "us", len(per["lookup"].parse))
	r.add("plan.prepare_us", prepare, "us", len(per["lookup"].prepare))
	r.add("qpi.compile_us", compile, "us", rounds*len(env.classes))
	r.add("qpi.materialise_ms", materialise, "ms", rounds*len(env.classes))
	r.add("exec.scan_ms", scan, "ms", rounds*len(env.classes))
	r.add("exec.partition_ms", phase[phasePartition], "ms", rounds*len(env.classes))
	r.add("exec.join_ms", phase[phaseJoin], "ms", rounds*len(env.classes))
	r.add("exec.aggregate_ms", phase[phaseAggregate], "ms", rounds*len(env.classes))
	r.add("exec.emit_ms", phase[phaseEmit], "ms", rounds*len(env.classes))
	r.add("exec.getnext", getnext, "count", rounds*len(env.classes))
	r.add("exec.batches", batches, "count", rounds*len(env.classes))
	r.add("core.overhead_ratio", svc/bare, "ratio", rounds*len(env.classes))
	r.add("core.recomputes", rec, "count", rounds*len(env.classes))
	r.add("core.histogram_probes", hp, "count", rounds*len(env.classes))
	r.add("progress.ticks", 0, "count", ph.count())
	r.add("progress.report_us", weighted(func(_ *serveClass, a *acc) float64 { return median(a.reportUs) }), "us", rounds*len(env.classes))
	r.add("spill.bytes", float64(spill.written)/n, "bytes", ph.count())
	r.add("spill.files", float64(spill.files)/n, "count", ph.count())
	r.add("service.plan_cache_hit_rate", float64(hits)/float64(max(hits+misses, 1)), "fraction", int(hits+misses))
	r.add("go.alloc_mb_per_query", float64(mem.alloc)/(1<<20)/n, "MB", ph.count())
	r.add("go.gc_pause_ms", float64(mem.pauseNs)/1e6/n, "ms", ph.count())
	r.add("obs.trace_overhead_ratio", traced/bareRun, "ratio", rounds*len(env.classes))

	l := newLedger(lat)
	l.add("service.queue", queue)
	l.add("sql.parse (misses)", parse/1e3)
	l.add("plan.prepare (misses)", prepare/1e3)
	l.add("qpi.compile", compile/1e3)
	l.add("http.encode", encode)
	l.add("core (svc - bare)", core)
	l.add("qpi.materialise", materialise)
	l.add("spill.io", spillIO)
	l.add("exec.scan", scan)
	for _, k := range []string{phasePartition, phaseJoin, phaseAggregate, phaseEmit} {
		l.add("exec."+k, phase[k])
	}
	l.print(r, ph.count())
	return nil
}

package qpi

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"qpi/internal/exec"
)

// raiseProcsAPI lifts GOMAXPROCS so the compile-time worker cap leaves
// the morsel passes multi-worker even on single-CPU machines.
func raiseProcsAPI(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestWithBatchExecutionMatchesDefault compiles the same join plan in the
// default tuple mode and with WithBatchExecution, and demands identical
// result multisets, identical converged estimates, and final progress 1.
func TestWithBatchExecutionMatchesDefault(t *testing.T) {
	raiseProcsAPI(t, 4)
	run := func(opts ...CompileOption) ([][]any, float64, string, int64) {
		e := testEngine(t)
		j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
		q := e.MustCompile(j, opts...)
		rows, err := q.Rows()
		if err != nil {
			t.Fatal(err)
		}
		oe, _ := q.EstimateOf("")
		est, src := oe.Estimate, oe.Source
		return rows, est, src, int64(len(rows))
	}
	rows0, est0, src0, n0 := run()
	for _, workers := range []int{1, 4} {
		rows, est, src, n := run(WithBatchExecution(workers))
		if n != n0 {
			t.Fatalf("workers=%d: %d rows vs %d", workers, n, n0)
		}
		a, b := sortedRows(rows0), sortedRows(rows)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: row %d differs: %s vs %s", workers, i, a[i], b[i])
			}
		}
		if src != "once-exact" || src0 != "once-exact" {
			t.Errorf("workers=%d: sources %q vs %q", workers, src, src0)
		}
		if math.Abs(est-est0) > 1e-9*math.Abs(est0) {
			t.Errorf("workers=%d: estimate %g vs %g", workers, est, est0)
		}
	}
}

// TestWithBatchExecutionRunAndProgress drives Run with a progress callback
// in batch mode: the final report must show progress 1 and the converged
// exact estimate.
func TestWithBatchExecutionRunAndProgress(t *testing.T) {
	raiseProcsAPI(t, 4)
	e := testEngine(t)
	j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
	q := e.MustCompile(j, WithBatchExecution(4))
	var last Report
	n, err := q.Run(nil, WithProgress(func(r Report) { last = r }, 500))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("join produced nothing")
	}
	if math.Abs(last.Progress-1) > 1e-9 {
		t.Errorf("final progress = %g", last.Progress)
	}
	oe, _ := q.EstimateOf("")
	est, src := oe.Estimate, oe.Source
	if est != float64(n) || src != "once-exact" {
		t.Errorf("estimate %g (%q) != rows %d", est, src, n)
	}
}

// TestWithBatchExecutionUnderMemoryBudget combines batching with a spill
// budget: the passes fall back to serial batched scatter and results stay
// identical to the default mode.
func TestWithBatchExecutionUnderMemoryBudget(t *testing.T) {
	run := func(opts ...CompileOption) int64 {
		e := testEngine(t)
		j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
		q := e.MustCompile(j, opts...)
		n, err := q.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	plain := run()
	budgeted := run(WithBatchExecution(4), WithMemoryBudget(32*1024))
	if plain != budgeted {
		t.Errorf("budgeted batch run: %d rows vs %d", budgeted, plain)
	}
}

// TestNodeParallel exercises the per-fragment builder knob: the joins run
// the batched tier and the plan root is driven through NextColBatch,
// exactly as under WithBatchExecution.
func TestNodeParallel(t *testing.T) {
	raiseProcsAPI(t, 4)
	e := testEngine(t)
	j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k")).Parallel(4)
	q := e.MustCompile(j)
	n, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	e2 := testEngine(t)
	j2 := HashJoin(e2.MustScan("r"), e2.MustScan("s"), Col("r", "k"), Col("s", "k"))
	q2 := e2.MustCompile(j2)
	n2, err := q2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != n2 {
		t.Errorf("Parallel plan: %d rows vs %d", n, n2)
	}
	oe, _ := q.EstimateOf("")
	est, src := oe.Estimate, oe.Source
	if src != "once-exact" || est != float64(n) {
		t.Errorf("estimate %g (%q) != %d", est, src, n)
	}
}

// TestSQLQueryBatched runs a SQL join + aggregation through the batch
// path end-to-end.
func TestSQLQueryBatched(t *testing.T) {
	raiseProcsAPI(t, 4)
	const sqlText = "SELECT r.k, COUNT(*) AS c FROM r JOIN s ON r.k = s.k GROUP BY r.k"
	e := testEngine(t)
	want, err := e.MustQuery(sqlText).Rows()
	if err != nil {
		t.Fatal(err)
	}
	e2 := testEngine(t)
	got, err := e2.MustQuery(sqlText, WithBatchExecution(4)).Rows()
	if err != nil {
		t.Fatal(err)
	}
	a, b := sortedRows(want), sortedRows(got)
	if len(a) != len(b) {
		t.Fatalf("%d groups vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("group %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRowsRunsSameEngineAsRun: Rows and Run share one root driver, so a
// batched GROUP BY over a skewed join leaves the same row count, the same
// Σ K_i (Metrics().Tuples) and the same batch count either way — Rows
// must not fall back to pulling the join and the aggregation one tuple at
// a time.
func TestRowsRunsSameEngineAsRun(t *testing.T) {
	raiseProcsAPI(t, 2)
	const sqlText = "SELECT r.k, COUNT(*) AS c FROM r JOIN s ON r.k = s.k GROUP BY r.k"
	mk := func() *Engine {
		e := New()
		e.MustCreateSkewedTable("r", 20000, 1, SkewedColumn{Name: "k", Domain: 5000, Zipf: 0.5})
		e.MustCreateSkewedTable("s", 20000, 2, SkewedColumn{Name: "k", Domain: 5000, Zipf: 0.5})
		return e
	}
	run := mk().MustQuery(sqlText, WithBatchExecution(2))
	n, err := run.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	rowsQ := mk().MustQuery(sqlText, WithBatchExecution(2))
	rows, err := rowsQ.Rows()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mk().MustQuery(sqlText).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != n || len(rows) != len(want) {
		t.Fatalf("Run returned %d rows, Rows %d, tuple path %d", n, len(rows), len(want))
	}
	a, b := sortedRows(want), sortedRows(rows)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs from the tuple path: %s vs %s", i, b[i], a[i])
		}
	}
	rm, qm := run.Metrics(), rowsQ.Metrics()
	if rm.Tuples != qm.Tuples {
		t.Errorf("Σ K_i: Run %d, Rows %d", rm.Tuples, qm.Tuples)
	}
	if rm.Batches != qm.Batches || rm.Batches == 0 {
		t.Errorf("batches: Run %d, Rows %d (want equal and non-zero)", rm.Batches, qm.Batches)
	}
}

// TestBatchWorkersCappedAtCompile: a worker count from outside input
// (WithBatchExecution, Node.Parallel, the service's batch_workers) is
// capped at GOMAXPROCS when the plan compiles, so no join sizes its scan
// workers from the request, and the capped plan still answers exactly.
func TestBatchWorkersCappedAtCompile(t *testing.T) {
	const sqlText = "SELECT r.k, COUNT(*) AS c FROM r JOIN s ON r.k = s.k GROUP BY r.k"
	procs := runtime.GOMAXPROCS(0)
	checkCapped := func(label string, q *Query) {
		t.Helper()
		joins := 0
		exec.Walk(q.root, func(op exec.Operator) {
			if j, ok := op.(*exec.HashJoin); ok {
				joins++
				if !j.Batched() || j.Workers() > procs || j.Parallelism() > procs {
					t.Errorf("%s: join %s batched=%v workers=%d parallelism=%d, GOMAXPROCS %d",
						label, j.Name(), j.Batched(), j.Workers(), j.Parallelism(), procs)
				}
			}
		})
		if joins == 0 {
			t.Fatalf("%s: plan has no hash join", label)
		}
	}
	want, err := testEngine(t).MustQuery(sqlText).Rows()
	if err != nil {
		t.Fatal(err)
	}
	q := testEngine(t).MustQuery(sqlText, WithBatchExecution(1<<16))
	checkCapped("WithBatchExecution", q)
	got, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	a, b := sortedRows(want), sortedRows(got)
	if len(a) != len(b) {
		t.Fatalf("%d groups vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("group %d differs: %s vs %s", i, b[i], a[i])
		}
	}

	e := testEngine(t)
	j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k")).Parallel(1 << 16)
	checkCapped("Node.Parallel", e.MustCompile(j))
}

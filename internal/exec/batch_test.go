package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"qpi/internal/data"
	"qpi/internal/expr"
	"qpi/internal/storage"
)

// drainTuples runs an operator tuple-at-a-time and returns its rows.
func drainTuples(t *testing.T, op Operator) []data.Tuple {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	rows, err := Drain(op)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rows
}

// drainBatches runs an operator through its row-batch path and returns
// its rows.
func drainBatches(t *testing.T, op Operator) []data.Tuple {
	t.Helper()
	b := AsBatch(op)
	if err := b.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	var rows []data.Tuple
	for {
		bt, err := b.NextBatch()
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if len(bt) == 0 {
			break
		}
		rows = append(rows, bt...)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rows
}

// drainCols runs an operator through its columnar path — the batched
// tier's root driver — and returns its rows.
func drainCols(t *testing.T, op Operator) []data.Tuple {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	rows, err := DrainCol(AsColOperator(op))
	if err != nil {
		t.Fatalf("DrainCol: %v", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rows
}

// fingerprints renders rows into comparable strings.
func fingerprints(rows []data.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// requireSameRows asserts two result sets are identical; ordered compares
// row-by-row, unordered compares sorted multisets (the parallel scatter
// interleaves tuples within a partition nondeterministically).
func requireSameRows(t *testing.T, want, got []data.Tuple, ordered bool, label string) {
	t.Helper()
	w, g := fingerprints(want), fingerprints(got)
	if !ordered {
		sort.Strings(w)
		sort.Strings(g)
	}
	if len(w) != len(g) {
		t.Fatalf("%s: %d rows vs %d", label, len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: row %d differs: %s vs %s", label, i, w[i], g[i])
		}
	}
}

// requireSameStats asserts the final operator stats agree between modes.
func requireSameStats(t *testing.T, a, b Operator, label string) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa.Emitted.Load() != sb.Emitted.Load() {
		t.Errorf("%s: Emitted %d vs %d", label, sa.Emitted.Load(), sb.Emitted.Load())
	}
	if sa.IsDone() != sb.IsDone() {
		t.Errorf("%s: Done %v vs %v", label, sa.IsDone(), sb.IsDone())
	}
}

func TestScanBatchEquivalence(t *testing.T) {
	vals := make([]int64, 5*storage.BlockSize+17) // partial last batch + partial block
	for i := range vals {
		vals[i] = int64(i)
	}
	mk := func() *Scan {
		sc := NewScan(makeTable("t", vals), "")
		sc.SampleFraction = 0.3
		sc.Seed = 7
		return sc
	}
	tup := mk()
	var tupAt int
	seen := 0
	tup.OnTuple = func(data.Tuple) { seen++ }
	tup.OnSampleEnd = func() { tupAt = seen }
	want := drainTuples(t, tup)

	bat := mk()
	var batAt int
	bseen := 0
	bat.OnTuple = func(data.Tuple) { bseen++ }
	bat.OnSampleEnd = func() { batAt = bseen }
	got := drainBatches(t, bat)

	requireSameRows(t, want, got, true, "scan")
	requireSameStats(t, tup, bat, "scan")
	if tupAt != batAt || tupAt == 0 {
		t.Errorf("sample punctuation: tuple mode at %d, batch mode at %d", tupAt, batAt)
	}
}

func TestFilterProjectLimitBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][2]int64, 4000)
	for i := range rows {
		rows[i] = [2]int64{int64(rng.Intn(50)), int64(rng.Intn(1000))}
	}
	mk := func() Operator {
		sc := NewScan(makeTable2("t", rows), "")
		f := NewFilter(sc, expr.Compare(expr.LT, expr.Column(sc.Schema(), "t", "x"), expr.IntLit(20)))
		p := ProjectColumns(f, [2]string{"t", "y"}, [2]string{"t", "x"})
		return NewLimit(p, 1500)
	}
	a, b := mk(), mk()
	requireSameRows(t, drainTuples(t, a), drainCols(t, b), true, "filter/project/limit")
	requireSameStats(t, a, b, "filter/project/limit")
}

func TestHashAggBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := make([][2]int64, 3000)
	for i := range rows {
		rows[i] = [2]int64{int64(rng.Intn(40)), int64(rng.Intn(100))}
	}
	mk := func() Operator {
		return NewHashAgg(NewScan(makeTable2("t", rows), ""), []int{0}, []AggSpec{
			{Func: CountStar, Name: "c"},
			{Func: Sum, Col: 1, Name: "s"},
			{Func: Min, Col: 1, Name: "lo"},
		})
	}
	a, b := mk(), mk()
	requireSameRows(t, drainTuples(t, a), drainCols(t, b), true, "hashagg")
	requireSameStats(t, a, b, "hashagg")
}

func TestHashJoinBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	build := make([]int64, 2500)
	probe := make([]int64, 3000)
	for i := range build {
		build[i] = int64(rng.Intn(80))
	}
	for i := range probe {
		probe[i] = int64(rng.Intn(80))
	}
	for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
		mk := func(workers int) *HashJoin {
			j := NewHashJoinMulti(
				NewScan(makeTable("a", build), ""),
				NewScan(makeTable("b", probe), ""),
				[]int{0}, []int{0}, jt)
			j.SetParallelism(workers)
			return j
		}
		base := mk(0)
		want := drainTuples(t, base)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%v join, %d workers", jt, workers)
			j := mk(workers)
			got := drainCols(t, j)
			// K=1 keeps input order within partitions; K>1 interleaves.
			requireSameRows(t, want, got, workers == 1, label)
			requireSameStats(t, base, j, label)
			if j.BuildRows() != base.BuildRows() || j.ProbeRows() != base.ProbeRows() {
				t.Errorf("%s: rows build=%d/%d probe=%d/%d", label,
					j.BuildRows(), base.BuildRows(), j.ProbeRows(), base.ProbeRows())
			}
		}
	}
}

// TestHashJoinNullKeysBatched checks the NULL-key rules survive the
// batched tier's lane-native passes: build NULLs never join, probe NULLs are preserved only by the
// probe-preserving join types.
func TestHashJoinNullKeysBatched(t *testing.T) {
	mkSide := func(name string, vals []int64, nulls int) *storage.Table {
		sch := data.NewSchema(data.Column{Table: name, Name: "k", Kind: data.KindInt})
		tb := storage.NewTable(name, sch)
		for _, v := range vals {
			tb.MustAppend(data.Tuple{data.Int(v)})
		}
		for i := 0; i < nulls; i++ {
			tb.MustAppend(data.Tuple{data.Null()})
		}
		return tb
	}
	for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
		mk := func(workers int) *HashJoin {
			j := NewHashJoinMulti(
				NewScan(mkSide("a", []int64{1, 2, 2, 3}, 2), ""),
				NewScan(mkSide("b", []int64{2, 3, 3, 4}, 3), ""),
				[]int{0}, []int{0}, jt)
			j.SetParallelism(workers)
			return j
		}
		want := drainTuples(t, NewHashJoinMulti(
			NewScan(mkSide("a", []int64{1, 2, 2, 3}, 2), ""),
			NewScan(mkSide("b", []int64{2, 3, 3, 4}, 3), ""),
			[]int{0}, []int{0}, jt))
		for _, workers := range []int{1, 3} {
			got := drainCols(t, mk(workers))
			requireSameRows(t, want, got, workers == 1,
				fmt.Sprintf("%v join nulls, %d workers", jt, workers))
		}
	}
}

// TestHashJoinBatchHooks checks the batched pass hook contract: per-tuple
// hooks fire once per input tuple, worker-indexed span hooks cover every
// tuple exactly once across workers, and OnBuildEnd fires between the
// passes.
func TestHashJoinBatchHooks(t *testing.T) {
	a := randTable("a", 2000, 50, 21)
	b := randTable("b", 2400, 50, 22)
	for _, workers := range []int{1, 4} {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		j.SetParallelism(workers)
		var buildTuples, probeTuples, outputs int
		var buildBatched, probeBatched int64
		buildEnd, probeEnd := false, false
		j.OnBuildTuple = func(data.Tuple) {
			if buildEnd {
				t.Error("OnBuildTuple after OnBuildEnd")
			}
			buildTuples++
		}
		j.OnProbeTuple = func(data.Tuple) {
			if !buildEnd {
				t.Error("OnProbeTuple before OnBuildEnd")
			}
			probeTuples++
		}
		j.OnBuildEnd = func() { buildEnd = true }
		j.OnProbeEnd = func() { probeEnd = true }
		j.OnOutput = func(data.Tuple) { outputs++ }
		counts := make([]int64, 8) // per-worker tallies, no sharing
		j.OnBuildColBatch = func(w int, cb *data.ColBatch) { counts[w] += int64(cb.Live()) }
		j.OnProbeColBatch = func(w int, cb *data.ColBatch) { counts[4+w] += int64(cb.Live()) }
		n, err := RunCol(j)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 4; w++ {
			buildBatched += counts[w]
			probeBatched += counts[4+w]
		}
		if buildTuples != len(a) || probeTuples != len(b) {
			t.Errorf("workers=%d: per-tuple hooks build=%d probe=%d", workers, buildTuples, probeTuples)
		}
		if buildBatched != int64(len(a)) || probeBatched != int64(len(b)) {
			t.Errorf("workers=%d: span hooks build=%d probe=%d", workers, buildBatched, probeBatched)
		}
		if !buildEnd || !probeEnd {
			t.Errorf("workers=%d: barriers build=%v probe=%v", workers, buildEnd, probeEnd)
		}
		if int64(outputs) != n {
			t.Errorf("workers=%d: OnOutput fired %d times for %d rows", workers, outputs, n)
		}
	}
}

// TestAdaptersCompose drives a tuple-only operator (Sort) through AsBatch,
// and a native batch operator through AsTuples, asserting both directions
// preserve the stream.
func TestAdaptersCompose(t *testing.T) {
	vals := randTable("t", 3000, 10000, 23)

	// Tuple-only op lifted to batches.
	s1 := NewSort(NewScan(makeTable("t", vals), ""), 0)
	want := drainTuples(t, s1)
	s2 := NewSort(NewScan(makeTable("t", vals), ""), 0)
	got := drainBatches(t, s2) // AsBatch wraps: Sort has no NextBatch
	if _, native := Operator(s2).(BatchOperator); native {
		t.Fatal("Sort unexpectedly implements BatchOperator; test needs a tuple-only op")
	}
	requireSameRows(t, want, got, true, "sort via batchAdapter")

	// Native batch op served tuple-at-a-time through AsTuples.
	sc := NewScan(makeTable("t", vals), "")
	ad := AsTuples(AsBatch(sc))
	if err := ad.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(ad)
	if err != nil {
		t.Fatal(err)
	}
	ad.Close()
	sc2 := NewScan(makeTable("t", vals), "")
	requireSameRows(t, drainTuples(t, sc2), rows, true, "scan via tupleAdapter")
}

// TestMixedModePlan pipelines a batched-tier join under a tuple-only sort
// under a columnar drain: the adapters must compose transparently.
func TestMixedModePlan(t *testing.T) {
	a := randTable("a", 1200, 60, 24)
	b := randTable("b", 1500, 60, 25)
	mk := func(workers int) Operator {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		j.SetParallelism(workers)
		return NewSort(j, 1)
	}
	want := drainTuples(t, mk(0))
	got := drainCols(t, mk(4))
	// Sort on the probe key makes the comparison order-insensitive enough;
	// still compare as multisets since equal keys may interleave.
	requireSameRows(t, want, got, false, "join under sort")
}

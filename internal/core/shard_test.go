package core

import (
	"math"
	"math/rand"
	"testing"

	"qpi/internal/exec"
)

// Tests for the batched-tier estimator attachment: every chain shape the
// paper's §4.1.4 evaluation exercises (Figure 3's binary joins, Figure
// 5's same-attribute chains, Figure 6's Case 1/Case 2 different-attribute
// chains) must converge to the same exact cardinalities whether the joins
// run tuple-at-a-time or on the lane-native batched tier with one worker
// (serial vectorized scatter) or several (morsel-driven scans).

// chainJoins collects a probe-linked hash-join chain top-down.
func chainJoins(top *exec.HashJoin) []*exec.HashJoin {
	var joins []*exec.HashJoin
	cur := top
	for {
		joins = append(joins, cur)
		next, ok := cur.Probe().(*exec.HashJoin)
		if !ok {
			break
		}
		cur = next
	}
	return joins
}

// runBatchedChainAndCompare attaches the estimator to an already
// parallelized chain, runs it through the columnar path, and checks the
// converged estimates are exact at every level — the same contract
// runChainAndCompare enforces for the serial mode.
func runBatchedChainAndCompare(t *testing.T, top *exec.HashJoin, wantSharded bool) {
	t.Helper()
	att := Attach(top)
	pe := att.ChainOf[top]
	if pe == nil {
		t.Fatal("no chain estimator attached")
	}
	if pe.ColShardAttached() != wantSharded {
		t.Fatalf("ColShardAttached = %v, want %v", pe.ColShardAttached(), wantSharded)
	}
	if _, err := exec.RunCol(top); err != nil {
		t.Fatal(err)
	}
	if !pe.Converged() {
		t.Fatal("estimator did not converge")
	}
	for k, j := range chainJoins(top) {
		truth := float64(j.Stats().Emitted.Load())
		if got := pe.Estimate(k); math.Abs(got-truth) > 1e-6 {
			t.Errorf("level %d: converged estimate %g != true cardinality %g", k, got, truth)
		}
		if j.Stats().Source() != "once-exact" {
			t.Errorf("level %d: est source = %q", k, j.Stats().Source())
		}
		if math.Abs(j.Stats().Estimate()-truth) > 1e-6 {
			t.Errorf("level %d: stats estimate %g != %g", k, j.Stats().Estimate(), truth)
		}
	}
}

// parallelize puts every hash join in the plan on the batched tier with
// k workers.
// It must run before Attach so the estimator sees the batched chain.
func parallelize(op exec.Operator, k int) {
	if j, ok := op.(*exec.HashJoin); ok {
		j.SetParallelism(k)
	}
	for _, c := range op.Children() {
		parallelize(c, k)
	}
}

// fig3Plan is the Figure 3 shape: one binary join on a shared domain.
func fig3Plan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"k"}, randCol(rng, 300, 20))
	b := table("b", []string{"k"}, randCol(rng, 400, 20))
	return exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
}

// fig5Plan is the Figure 5 shape: A ⋈x (B ⋈x C), same attribute at both
// levels.
func fig5Plan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"x"}, randCol(rng, 100, 10))
	b := table("b", []string{"x"}, randCol(rng, 120, 10))
	c := table("c", []string{"x"}, randCol(rng, 150, 10))
	lower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
	return exec.NewHashJoin(exec.NewScan(a, ""), lower,
		0, lower.Schema().MustResolve("c", "x"))
}

// fig6Plan builds the Figure 6 shapes: A ⋈y (B ⋈x C) with the upper key
// from the lower probe relation (Case 1) or the lower build relation
// (Case 2, the derived-histogram path).
func fig6Plan(seed int64, case2 bool) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"y"}, randCol(rng, 90, 8))
	var upperKeyTable string
	var lower *exec.HashJoin
	if case2 {
		b := table("b", []string{"x", "y"}, randCol(rng, 110, 12), randCol(rng, 110, 8))
		c := table("c", []string{"x"}, randCol(rng, 130, 12))
		lower = exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
		upperKeyTable = "b"
	} else {
		b := table("b", []string{"x"}, randCol(rng, 110, 12))
		c := table("c", []string{"x", "y"}, randCol(rng, 130, 12), randCol(rng, 130, 8))
		lower = exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
		upperKeyTable = "c"
	}
	return exec.NewHashJoin(exec.NewScan(a, ""), lower,
		0, lower.Schema().MustResolve(upperKeyTable, "y"))
}

func TestBatchedChainsExactOnPaperShapes(t *testing.T) {
	shapes := []struct {
		name string
		mk   func() *exec.HashJoin
	}{
		{"fig3-binary", func() *exec.HashJoin { return fig3Plan(10) }},
		{"fig5-same-attr", func() *exec.HashJoin { return fig5Plan(11) }},
		{"fig6-case1", func() *exec.HashJoin { return fig6Plan(12, false) }},
		{"fig6-case2", func() *exec.HashJoin { return fig6Plan(13, true) }},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 4} {
			t.Run(sh.name, func(t *testing.T) {
				top := sh.mk()
				parallelize(top, workers)
				runBatchedChainAndCompare(t, top, true)
			})
		}
	}
}

// TestBatchedMatchesSerialTrajectories runs each shape serially and
// batched and demands the same converged estimate and the same number of
// probe tuples observed — the trajectories end at the same point.
func TestBatchedMatchesSerialTrajectories(t *testing.T) {
	shapes := []func() *exec.HashJoin{
		func() *exec.HashJoin { return fig3Plan(20) },
		func() *exec.HashJoin { return fig5Plan(21) },
		func() *exec.HashJoin { return fig6Plan(22, false) },
		func() *exec.HashJoin { return fig6Plan(23, true) },
	}
	for si, mk := range shapes {
		run := func(workers int) (est []float64, probes int64, rows int64) {
			top := mk()
			if workers > 0 {
				parallelize(top, workers)
			}
			att := Attach(top)
			pe := att.ChainOf[top]
			pe.OnProbeObserved = func(n int64) { probes = n }
			var err error
			if workers > 0 {
				rows, err = exec.RunCol(top)
			} else {
				rows, err = exec.Run(top)
			}
			if err != nil {
				t.Fatal(err)
			}
			for k := range chainJoins(top) {
				est = append(est, pe.Estimate(k))
			}
			return est, probes, rows
		}
		serialEst, serialProbes, serialRows := run(0)
		for _, workers := range []int{1, 4} {
			est, probes, rows := run(workers)
			if rows != serialRows {
				t.Errorf("shape %d workers %d: %d rows vs serial %d", si, workers, rows, serialRows)
			}
			if probes != serialProbes {
				t.Errorf("shape %d workers %d: observed %d probe tuples vs serial %d", si, workers, probes, serialProbes)
			}
			for k := range est {
				diff := math.Abs(est[k] - serialEst[k])
				if rel := math.Abs(serialEst[k]); rel > 0 {
					diff /= rel
				}
				if diff > 1e-9 {
					t.Errorf("shape %d workers %d level %d: estimate %g vs serial %g",
						si, workers, k, est[k], serialEst[k])
				}
			}
		}
	}
}

// TestMixedChainFallsBackToTupleHooks: if only part of a chain is batched
// the estimator must keep the per-tuple hooks (which the batched passes
// fire too) and stay exact — the sharded mode requires every link
// batched.
func TestMixedChainFallsBackToTupleHooks(t *testing.T) {
	top := fig5Plan(30)
	// Batch only the lower join.
	lower := top.Probe().(*exec.HashJoin)
	lower.SetParallelism(4)
	runBatchedChainAndCompare(t, top, false)
}

// TestBatchedSemiJoinTopExact: non-inner top joins root their own chains;
// the sharded mode must honor their multiplicity transforms too.
func TestBatchedSemiJoinTopExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := table("a", []string{"k"}, randCol(rng, 200, 15))
	b := table("b", []string{"k"}, randCol(rng, 260, 15))
	j := exec.NewHashJoinMulti(exec.NewScan(a, ""), exec.NewScan(b, ""),
		[]int{0}, []int{0}, exec.SemiJoin)
	j.SetParallelism(4)
	runBatchedChainAndCompare(t, j, true)
}

// TestBatchedAggPushdownExact: GROUP BY over a batched join chain keeps
// the push-down estimator exact; the final publish happens at the probe
// barrier (afterConverge) instead of the per-tuple tick.
func TestBatchedAggPushdownExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(32))
		a := table("a", []string{"k"}, randCol(rng, 300, 25))
		b := table("b", []string{"k"}, randCol(rng, 500, 25))
		j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
		j.SetParallelism(workers)
		gcol := j.Schema().MustResolve("b", "k")
		agg := exec.NewHashAgg(j, []int{gcol}, []exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
		att := Attach(agg)
		est := att.Aggs[agg]
		if est == nil || est.Source() != "agg-pushdown" {
			t.Fatal("expected pushdown estimator")
		}
		if !att.ChainOf[j].ColShardAttached() {
			t.Fatal("chain should attach sharded")
		}
		rows, err := exec.RunCol(agg)
		if err != nil {
			t.Fatal(err)
		}
		if got := est.Estimate(); math.Abs(got-float64(rows)) > 1e-6 {
			t.Errorf("workers %d: pushdown estimate %g != true group count %d", workers, got, rows)
		}
		if got := agg.Stats().Estimate(); math.Abs(got-float64(rows)) > 1e-6 {
			t.Errorf("workers %d: published agg estimate %g != %d", workers, got, rows)
		}
	}
}

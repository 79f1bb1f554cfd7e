package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/storage"
)

// Tests for the batched-tier estimator attachment under morsel-driven
// partition passes. The headline contract is stronger than convergence:
// because every histogram mutation is an integer AddN into a worker
// shard merged in fixed order, and every probe moment delta is an
// integer-valued float64 (exact below 2^53), the converged estimator
// state must be BIT-IDENTICAL across the tuple path's per-tuple hooks
// and the batched tier at any worker count — asserted here with ==, not
// a tolerance.

// morselizeCol puts every hash join in the plan on the batched tier with
// k workers and single-block morsels. Must run before Attach.
func morselizeCol(op exec.Operator, k int) {
	if j, ok := op.(*exec.HashJoin); ok {
		j.SetParallelism(k).SetMorselBlocks(1)
	}
	for _, c := range op.Children() {
		morselizeCol(c, k)
	}
}

// columnarize puts every hash join on the batched tier with one worker
// (serial vectorized scatter).
func columnarize(op exec.Operator) {
	parallelize(op, 1)
}

// drainColPlan drains a columnar plan and returns the row count.
func drainColPlan(t *testing.T, top exec.Operator) int64 {
	t.Helper()
	if err := top.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := exec.DrainCol(exec.AsColOperator(top))
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}
	return int64(len(rows))
}

func TestColShardChainsExactOnPaperShapes(t *testing.T) {
	shapes := []struct {
		name string
		mk   func() *exec.HashJoin
	}{
		{"fig3-binary", func() *exec.HashJoin { return fig3Plan(40) }},
		{"fig5-same-attr", func() *exec.HashJoin { return fig5Plan(41) }},
		{"fig6-case1", func() *exec.HashJoin { return fig6Plan(42, false) }},
		{"fig6-case2", func() *exec.HashJoin { return fig6Plan(43, true) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			top := sh.mk()
			morselizeCol(top, 3)
			att := Attach(top)
			pe := att.ChainOf[top]
			if pe == nil {
				t.Fatal("no chain estimator attached")
			}
			if !pe.ColShardAttached() {
				t.Fatal("morselized chain did not attach sharded")
			}
			drainColPlan(t, top)
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
			}
		})
	}
}

// TestColShardBitIdenticalToSerialColumnar: the converged estimates of
// the morselized runs and of the tuple path must equal the one-worker
// batched run's exactly (==): integer histogram counts commute, and the
// probe moment sums accumulate integer-valued deltas, so no
// accumulation order can perturb a bit.
func TestColShardBitIdenticalToSerialColumnar(t *testing.T) {
	shapes := []func() *exec.HashJoin{
		func() *exec.HashJoin { return fig3Plan(50) },
		func() *exec.HashJoin { return fig5Plan(51) },
		func() *exec.HashJoin { return fig6Plan(52, false) },
		func() *exec.HashJoin { return fig6Plan(53, true) },
		func() *exec.HashJoin { return strKeyPlan(54) },
	}
	for si, mk := range shapes {
		// workers 0 is the tuple path with per-tuple hooks; 1 the serial
		// vectorized scatter; ≥ 2 morselized with single-block morsels.
		run := func(workers int) (est, lo, hi []float64, probes, rows int64) {
			top := mk()
			if workers > 0 {
				morselizeCol(top, workers)
			}
			att := Attach(top)
			pe := att.ChainOf[top]
			if pe.ColShardAttached() != (workers > 0) {
				t.Fatalf("shape %d workers %d: ColShardAttached = %v", si, workers, pe.ColShardAttached())
			}
			pe.OnProbeObserved = func(n int64) { probes = n }
			rows = drainColPlan(t, top)
			for k := range chainJoins(top) {
				est = append(est, pe.Estimate(k))
				l, h := pe.ConfidenceInterval(k, 0.95)
				lo, hi = append(lo, l), append(hi, h)
			}
			return
		}
		refEst, refLo, refHi, refProbes, refRows := run(1)
		for _, workers := range []int{0, 2, 3, 4} {
			est, lo, hi, probes, rows := run(workers)
			if rows != refRows || probes != refProbes {
				t.Errorf("shape %d workers %d: rows/probes %d/%d vs k=1 %d/%d",
					si, workers, rows, probes, refRows, refProbes)
			}
			for k := range est {
				if est[k] != refEst[k] {
					t.Errorf("shape %d workers %d level %d: estimate %v != k=1 %v (must be bit-identical)",
						si, workers, k, est[k], refEst[k])
				}
				if lo[k] != refLo[k] || hi[k] != refHi[k] {
					t.Errorf("shape %d workers %d level %d: CI [%v,%v] != k=1 [%v,%v]",
						si, workers, k, lo[k], hi[k], refLo[k], refHi[k])
				}
			}
		}
	}
}

// strKeyTable builds a single string-key-column table over an integer
// domain (same equality classes as randCol, rendered as strings).
func strKeyTable(name string, keys []int64) *storage.Table {
	s := data.NewSchema(data.Column{Table: name, Name: "k", Kind: data.KindString})
	t := storage.NewTable(name, s)
	for _, k := range keys {
		t.MustAppend(data.Tuple{data.Str(fmt.Sprintf("k%03d", k))})
	}
	return t
}

// strKeyPlan is the fig3 binary shape with string join keys: the
// lane-native morsel scatter must take its generic (non-int-lane) path
// and the merged shards must still land bit-identical to the one-worker
// run.
func strKeyPlan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := strKeyTable("a", randCol(rng, 300, 20))
	b := strKeyTable("b", randCol(rng, 400, 20))
	return exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
}

// TestColShardMixedWorkerCountsExact: a batched chain whose joins run
// different worker counts — the top join's serial scatter, the lower
// join's morselized passes — still attaches sharded (each link sized to
// its own workers) and stays exact.
func TestColShardMixedWorkerCountsExact(t *testing.T) {
	top := fig5Plan(60)
	columnarize(top)
	lower := top.Probe().(*exec.HashJoin)
	lower.SetParallelism(3).SetMorselBlocks(1)
	att := Attach(top)
	pe := att.ChainOf[top]
	if !pe.ColShardAttached() {
		t.Fatal("batched chain with mixed worker counts did not attach sharded")
	}
	drainColPlan(t, top)
	if !pe.Converged() {
		t.Fatal("estimator did not converge")
	}
	for k, j := range chainJoins(top) {
		truth := float64(j.Stats().Emitted.Load())
		if got := pe.Estimate(k); math.Abs(got-truth) > 1e-6 {
			t.Errorf("level %d: converged estimate %g != %g", k, got, truth)
		}
	}
}

// TestColShardAggPushdownExact: GROUP BY over a morselized batched chain
// publishes the exact push-down estimate at the probe barrier.
func TestColShardAggPushdownExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := table("a", []string{"k"}, randCol(rng, 300, 25))
	b := table("b", []string{"k"}, randCol(rng, 500, 25))
	j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
	morselizeCol(j, 3)
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
		t.Errorf("pushdown estimate %g != true group count %d", got, rows)
	}
	if got := agg.Stats().Estimate(); math.Abs(got-float64(rows)) > 1e-6 {
		t.Errorf("published agg estimate %g != %d", got, rows)
	}
}

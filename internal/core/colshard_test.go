package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/hashtab"
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

// TestFreqHistogramMergeMatchesAddNLoop: Merge leaves the destination
// exactly as the loop src.Each(dst.AddN) does — counts, total, distinct
// count and profile — over random shards with the math.MinInt64
// sentinel key, string keys and zero counts, into plain and
// TrackProfile destinations. Once Merge has reserved, the destination's
// table never grows.
func TestFreqHistogramMergeMatchesAddNLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	fill := func(h *FreqHistogram, n, domain int) {
		for i := 0; i < n; i++ {
			switch r := rng.Intn(20); {
			case r == 0:
				h.AddN(data.Int(math.MinInt64), int64(1+rng.Intn(3)))
			case r == 1:
				h.AddN(data.Str(fmt.Sprintf("s%d", rng.Intn(domain))), int64(1+rng.Intn(3)))
			case r == 2:
				h.ints.Ref(int64(rng.Intn(domain))) // zero count, if new
			default:
				h.AddN(data.Int(int64(rng.Intn(domain))-int64(domain/2)), int64(1+rng.Intn(4)))
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		domain := 1 + rng.Intn(5000)
		got, want := NewFreqHistogram(), NewFreqHistogram()
		if trial%2 == 1 {
			got.TrackProfile()
			want.TrackProfile()
		}
		for shard := 0; shard < 1+rng.Intn(4); shard++ {
			src := NewFreqHistogram()
			fill(src, rng.Intn(3*domain), domain)
			if src.other != nil && rng.Intn(2) == 0 {
				src.other[data.Str("zero")] = 0
			}
			var reserved hashtab.I64Map[int64]
			reserved.Reserve(got.ints.Len() + src.ints.Len())
			slots := max(reserved.Slots(), got.ints.Slots())
			got.Merge(src)
			if got.ints.Slots() != slots {
				t.Fatalf("trial %d shard %d: table grew during Merge: %d slots, reserved %d",
					trial, shard, got.ints.Slots(), slots)
			}
			src.Each(func(v data.Value, n int64) bool {
				want.AddN(v, n)
				return true
			})
		}
		if got.Total() != want.Total() || got.Distinct() != want.Distinct() {
			t.Fatalf("trial %d: total/distinct %d/%d, want %d/%d",
				trial, got.Total(), got.Distinct(), want.Total(), want.Distinct())
		}
		want.Each(func(v data.Value, n int64) bool {
			if got.Count(v) != n {
				t.Fatalf("trial %d: Count(%v) = %d, want %d", trial, v, got.Count(v), n)
			}
			return true
		})
		if !reflect.DeepEqual(got.Profile(), want.Profile()) {
			t.Fatalf("trial %d: profile %v, want %v", trial, got.Profile(), want.Profile())
		}
	}
}

// mixedProvenancePlan is the three-join chain A ⋈w (B ⋈y (C ⋈x D)): A
// keys off C's w column (Case 2 through two levels), B off D's y column
// (Case 1).
func mixedProvenancePlan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"w"}, randCol(rng, 60, 6))
	b := table("b", []string{"y"}, randCol(rng, 70, 7))
	c := table("c", []string{"x", "w"}, randCol(rng, 80, 9), randCol(rng, 80, 6))
	d := table("d", []string{"x", "y"}, randCol(rng, 90, 9), randCol(rng, 90, 7))
	bottom := exec.NewHashJoinOn(exec.NewScan(c, ""), exec.NewScan(d, ""), "c", "x", "d", "x")
	mid := exec.NewHashJoin(exec.NewScan(b, ""), bottom, 0, bottom.Schema().MustResolve("d", "y"))
	return exec.NewHashJoin(exec.NewScan(a, ""), mid, 0, mid.Schema().MustResolve("c", "w"))
}

// typedTopPlan puts a semi or anti join on top of a binary inner join:
// the typed join roots its own one-link chain, whose bottom stream is
// the inner join's output.
func typedTopPlan(seed int64, jt exec.JoinType) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"k"}, randCol(rng, 200, 15))
	b := table("b", []string{"k"}, randCol(rng, 260, 15))
	c := table("c", []string{"k"}, randCol(rng, 240, 15))
	lower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "k", "c", "k")
	return exec.NewHashJoinMulti(exec.NewScan(a, ""), lower,
		[]int{0}, []int{lower.Schema().MustResolve("c", "k")}, jt)
}

// pushdownPlan is GROUP BY b.k over a ⋈ b: aggregation push-down rides
// the chain's output distribution.
func pushdownPlan(seed int64) exec.Operator {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"k"}, randCol(rng, 300, 25))
	b := table("b", []string{"k"}, randCol(rng, 500, 25))
	j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
	gcol := j.Schema().MustResolve("b", "k")
	return exec.NewHashAgg(j, []int{gcol}, []exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
}

// twoColumnPlan joins on a two-column key: no lane observer applies.
func twoColumnPlan(seed int64) exec.Operator {
	rng := rand.New(rand.NewSource(seed))
	b := table("b", []string{"x", "y"}, randCol(rng, 300, 8), randCol(rng, 300, 6))
	p := table("p", []string{"x", "y"}, randCol(rng, 300, 8), randCol(rng, 300, 6))
	return exec.NewHashJoinMulti(exec.NewScan(b, ""), exec.NewScan(p, ""),
		[]int{0, 1}, []int{0, 1}, exec.InnerJoin)
}

// laneRun runs a fresh plan at k workers (0 = the tuple path, ≥ 2
// morselized) and returns every estimate the attachment converged to —
// each chain's per-level estimates and 95% intervals, then each
// aggregation estimate, in plan order — plus the row-fallback batches
// summed over the chains.
func laneRun(t *testing.T, mk func() exec.Operator, k int) (vals []float64, fallbacks int64) {
	t.Helper()
	top := mk()
	if k > 0 {
		morselizeCol(top, k)
	}
	att := Attach(top)
	drainColPlan(t, top)
	for _, pe := range att.Chains {
		if pe.ColShardAttached() != (k > 0) {
			t.Fatalf("k=%d: ColShardAttached = %v", k, pe.ColShardAttached())
		}
		if !pe.Converged() {
			t.Fatalf("k=%d: estimator did not converge", k)
		}
		for l := 0; l < pe.Levels(); l++ {
			lo, hi := pe.ConfidenceInterval(l, 0.95)
			vals = append(vals, pe.Estimate(l), lo, hi)
		}
		fallbacks += pe.buildRowFallbacks + pe.probeRowFallbacks
	}
	exec.Walk(top, func(op exec.Operator) {
		if est := att.Aggs[op]; est != nil {
			vals = append(vals, est.Estimate())
		}
	})
	return vals, fallbacks
}

// TestColShardLaneObserversCoverIntChains: every int-keyed chain shape —
// the paper's binary, same-attribute, Case 1, Case 2 and three-join
// mixed-provenance chains, semi and anti tops, aggregation push-down —
// runs on the lane observers with zero row-fallback batches at k = 1
// and k = 3, and converges to the tuple path's estimates exactly (==).
// A two-column key must take the row fallback and stay exact.
func TestColShardLaneObserversCoverIntChains(t *testing.T) {
	hj := func(f func() *exec.HashJoin) func() exec.Operator { return func() exec.Operator { return f() } }
	shapes := []struct {
		name     string
		mk       func() exec.Operator
		fallback bool
	}{
		{"fig3-binary", hj(func() *exec.HashJoin { return fig3Plan(90) }), false},
		{"fig5-same-attr", hj(func() *exec.HashJoin { return fig5Plan(91) }), false},
		{"fig6-case1", hj(func() *exec.HashJoin { return fig6Plan(92, false) }), false},
		{"fig6-case2", hj(func() *exec.HashJoin { return fig6Plan(93, true) }), false},
		{"three-join-mixed", hj(func() *exec.HashJoin { return mixedProvenancePlan(94) }), false},
		{"semi-top", hj(func() *exec.HashJoin { return typedTopPlan(95, exec.SemiJoin) }), false},
		{"anti-top", hj(func() *exec.HashJoin { return typedTopPlan(96, exec.AntiJoin) }), false},
		{"agg-pushdown", func() exec.Operator { return pushdownPlan(97) }, false},
		{"two-column-key", func() exec.Operator { return twoColumnPlan(98) }, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, _ := laneRun(t, sh.mk, 0)
			for _, k := range []int{1, 3} {
				got, fallbacks := laneRun(t, sh.mk, k)
				if sh.fallback != (fallbacks > 0) {
					t.Errorf("k=%d: %d row-fallback batches, want fallback %v", k, fallbacks, sh.fallback)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("k=%d: estimates %v != tuple path %v (must be bit-identical)", k, got, ref)
				}
			}
		})
	}
}

// TestColShardLaneObserversAllocationFree: the lane observers resolve
// their plans at install time, so once the shards hold every key a
// batch costs no allocation — here on a Case 2 chain (the lower build
// relation folds in the top join's counts) with the push-down output
// distribution on.
func TestColShardLaneObserversAllocationFree(t *testing.T) {
	var build [2]func(int, *data.ColBatch)
	var end [2]func()
	link := func(i, width, probeKey int) ChainLink {
		return ChainLink{
			Join:                 dummyJoin(),
			BuildWidth:           width,
			BuildKeys:            []int{0},
			ProbeKeys:            []int{probeKey},
			SetBuildHook:         func(func(data.Tuple)) {},
			Workers:              1,
			SetBuildColBatchHook: func(f func(int, *data.ColBatch)) { build[i] = f },
			SetBuildEndHook:      func(f func()) { end[i] = f },
		}
	}
	// Top join probes on the lower build relation's column 1 (Case 2);
	// the lower join probes on the bottom stream's column 0.
	pe, err := NewPipelineEstimator([]ChainLink{link(0, 1, 1), link(1, 2, 0)}, func() float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	pe.EnableOutputDistribution(0)
	batch := func(width int, rows ...data.Tuple) *data.ColBatch {
		cb := &data.ColBatch{}
		cb.FromTuples(rows, width)
		return cb
	}
	top := batch(1, data.Tuple{data.Int(1)}, data.Tuple{data.Int(2)}, data.Tuple{data.Int(2)})
	lower := batch(2, data.Tuple{data.Int(5), data.Int(2)}, data.Tuple{data.Int(6), data.Int(1)})
	bottom := batch(1, data.Tuple{data.Int(5)}, data.Tuple{data.Int(6)}, data.Tuple{data.Int(7)})
	build[0](0, top)
	end[0]()
	if n := testing.AllocsPerRun(20, func() { build[1](0, lower) }); n != 0 {
		t.Errorf("lane build hook: %v allocs per batch", n)
	}
	end[1]()
	if n := testing.AllocsPerRun(20, func() { pe.ObserveProbeColShard(0, bottom) }); n != 0 {
		t.Errorf("lane probe observer: %v allocs per batch", n)
	}
	pe.FinishProbe()
	if pe.buildRowFallbacks != 0 || pe.probeRowFallbacks != 0 {
		t.Errorf("row fallbacks: build %d probe %d", pe.buildRowFallbacks, pe.probeRowFallbacks)
	}
}

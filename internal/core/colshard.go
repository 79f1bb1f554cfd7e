package core

import (
	"qpi/internal/data"
	"qpi/internal/exec"
)

// This file is the batched-tier attachment mode of the pipeline
// estimator, backing the executor's lane-native partition passes
// (HashJoin.SetParallelism(k ≥ 1)). The passes deliver whole ColBatches
// through worker-indexed span hooks — from K concurrent scan workers
// under a morsel pass, as worker 0 on the serial vectorized scatter, the
// one-shard case — so the estimator gives every worker a private shard:
// per-relation frequency-histogram shards for the build passes,
// probeShard moment shards for the bottom probe pass. Shards merge
// single-threaded at the pass barriers (the build-end hook, FinishProbe
// on probe end), which the executor fires on the coordinator after its
// workers have joined. A merge goes through FreqHistogram.Merge, which
// pre-sizes the destination: a slot-order copy into a smaller, doubling
// table clusters and once cost more than the query.
//
// Both observers read the flat int64 key lanes. Their plans are resolved
// once at install time (laneBuild per relation, laneProbe per chain): the
// columns, the exact histograms read and the links' multiplicity
// transforms, so a batch costs no type assertion and no allocation. The
// probe observer covers every chain whose bottom-sourced probe keys are
// single columns read through *FreqHistograms: any chain length, semi,
// anti and outer links, and the aggregation push-down's output
// distribution. The build observer covers single-column build keys,
// including relations with folds (Case 2), whose weights it computes off
// the fold lanes. Row fallbacks, which materialise the batch and run the
// tuple path's per-row arithmetic, remain for multi-column keys,
// approximate histograms (ApproximateHistograms) and batches whose key
// lanes are not homogeneous ints (string or mixed-kind keys).
//
// Correctness of lock-free shard updates rests on the chain's execution
// order: relation R_0 is built first, then R_1, ..., R_{m-1}, then the
// bottom stream C is observed. A build-pass worker for relation j folds
// in histogram counts only of relations f.join < j — all fully built and
// merged at earlier barriers — and a probe-pass worker reads only the
// finished build histograms. Every mutation goes to worker-private state.
//
// The result is bit-identical to the tuple path's per-tuple hooks: every
// histogram mutation is an integer add into a private FreqHistogram
// shard, merged in fixed worker order (counts commute); probe moment
// deltas are integer-valued float64 products formed in the tuple path's
// order, accumulated per shard and folded at the barrier (exact below
// 2^53, order-independent). The §4.1.1 convergence guarantee is
// preserved: after the probe-end merge the estimator has observed
// exactly the multiset of tuples the tuple path observes, so
// MarkConverged publishes the same exact cardinalities. Estimates
// publish only at barriers, on the coordinator — Stats writes never
// happen on workers.

// probeShard is one worker's private share of the probe-pass moments,
// plus the lane observer's scratch.
type probeShard struct {
	t       int64
	sums    []float64
	sumSqs  []float64
	outDist *FreqHistogram
	// lanes holds the key lane of each laneProbe lookup for the current
	// batch, vals the lookups' weights for the current row.
	lanes []*data.ColVec
	vals  []float64
	// rowFallbacks counts the batches observed through the row path.
	rowFallbacks int64
}

// laneLookup is one histogram read of the lane observers: the column
// whose int lane keys it, the exact histogram it reads and the link's
// multiplicity transform (nil is the inner-join identity).
type laneLookup struct {
	col  int
	hist *FreqHistogram
	mult func(int64) float64
}

// weight returns the transformed count of row i's key, the factor
// probeDelta and buildWeight multiply in per join. A NULL key counts 0,
// as Count does for a NULL join key.
func (l *laneLookup) weight(kv *data.ColVec, i int) float64 {
	var n int64
	if !kv.Nulls.Get(i) {
		n = l.hist.CountInt(kv.Ints[i])
	}
	if l.mult != nil {
		return l.mult(n)
	}
	return float64(n)
}

// isIntLane reports whether v is one homogeneous int lane.
func isIntLane(v *data.ColVec) bool { return v.Homogeneous() && v.Kind == data.KindInt }

// bindLanes points lanes[i] at the column of lookups[i] in cb, reporting
// false when one of them is not a homogeneous int lane.
func bindLanes(lanes []*data.ColVec, lookups []laneLookup, cb *data.ColBatch) bool {
	for i := range lookups {
		kv := cb.Col(lookups[i].col)
		if !isIntLane(kv) {
			return false
		}
		lanes[i] = kv
	}
	return true
}

// eachLive calls f with the index of every live row of cb.
func eachLive(cb *data.ColBatch, f func(i int)) {
	if cb.Sel == nil {
		for i := 0; i < cb.NRows; i++ {
			f(i)
		}
		return
	}
	for _, i := range cb.Sel {
		f(int(i))
	}
}

// laneBuild is relation j's lane build plan: key is the build key column
// and folds[u] the lookups weighting update target u — the joins keyed
// off the relation at or above the target's level, in buildWeight's
// order.
type laneBuild struct {
	key     int
	folds   [][]laneLookup
	noFolds bool
}

// planLaneBuild resolves relation j's lane build plan, or returns nil when
// its build key or a fold key spans several columns or a fold reads an
// approximate histogram.
func (p *PipelineEstimator) planLaneBuild(j int, updates []histUpdate) *laneBuild {
	if len(p.links[j].BuildKeys) != 1 {
		return nil
	}
	lb := &laneBuild{
		key:     p.links[j].BuildKeys[0],
		folds:   make([][]laneLookup, len(updates)),
		noFolds: len(p.folds[j]) == 0,
	}
	for u, up := range updates {
		for _, f := range p.folds[j] {
			if f.join < up.level {
				continue
			}
			fh, ok := p.hists[up.level][f.join].(*FreqHistogram)
			if !ok || len(f.cols) != 1 {
				return nil
			}
			lb.folds[u] = append(lb.folds[u], laneLookup{col: f.cols[0], hist: fh, mult: p.links[f.join].Mult})
		}
	}
	return lb
}

// observe adds one build ColBatch to a worker's shards off its int lanes:
// per live row with a non-NULL key, the fold weight into every target.
// It reports false, having observed nothing, when a lane it reads is not
// a homogeneous int lane. lanes is the worker's scratch, shaped like
// folds.
func (lb *laneBuild) observe(sh []*FreqHistogram, lanes [][]*data.ColVec, cb *data.ColBatch) bool {
	kv := cb.Col(lb.key)
	if !isIntLane(kv) {
		return false
	}
	if lb.noFolds {
		for _, fh := range sh {
			fh.ObserveColumn(kv.Ints, cb.Sel, kv.Nulls)
		}
		return true
	}
	for u := range lb.folds {
		if !bindLanes(lanes[u], lb.folds[u], cb) {
			return false
		}
	}
	eachLive(cb, func(i int) {
		if kv.Nulls.Get(i) {
			return
		}
		for u, fl := range lb.folds {
			w := int64(1)
			for f := range fl {
				w *= int64(fl[f].weight(lanes[u][f], i))
			}
			sh[u].AddIntN(kv.Ints[i], w)
		}
	})
	return true
}

// laneProbe is the chain's lane probe plan. lookups holds each distinct
// histogram the probe pass reads, once — levels sharing a histogram
// share its count — and terms[k] the lookups whose product is out_k, in
// probeDelta's order.
type laneProbe struct {
	lookups []laneLookup
	terms   [][]int
}

// planLaneProbe resolves the chain's lane probe plan, or returns nil when
// a bottom-sourced probe key spans several columns or reads an
// approximate histogram.
func (p *PipelineEstimator) planLaneProbe() *laneProbe {
	lp := &laneProbe{terms: make([][]int, p.m)}
	index := map[*FreqHistogram]int{}
	for k := 0; k < p.m; k++ {
		for j := k; j < p.m; j++ {
			src := p.srcs[j]
			if !src.fromBottom {
				continue
			}
			fh, ok := p.hists[k][j].(*FreqHistogram)
			if !ok || len(src.cols) != 1 {
				return nil
			}
			l, seen := index[fh]
			if !seen {
				l = len(lp.lookups)
				index[fh] = l
				lp.lookups = append(lp.lookups, laneLookup{col: src.cols[0], hist: fh, mult: p.links[j].Mult})
			}
			lp.terms[k] = append(lp.terms[k], l)
		}
	}
	return lp
}

// ColShardAttached reports whether the estimator observes its chain
// through worker-indexed columnar span hooks.
func (p *PipelineEstimator) ColShardAttached() bool { return p.colShardInstalled }

// installColShardHooks wires the sharded span-at-a-time build observers
// for a batched chain and sizes the probe shards. Per relation j, each
// of the pass's workers gets one FreqHistogram shard per distinct update
// target, filled off the int lanes (laneBuild) or, failing that, row by
// row; the barrier hook merges shards into the shared derived histograms
// in worker order and releases them.
func (p *PipelineEstimator) installColShardHooks() {
	p.colShardInstalled = true
	for j := 0; j < p.m; j++ {
		j := j
		updates := p.updateTargets(j)
		buildKeys := p.links[j].BuildKeys
		lb := p.planLaneBuild(j, updates)
		workers := p.links[j].Workers
		shards := make([][]*FreqHistogram, workers)
		lanes := make([][][]*data.ColVec, workers)
		fallbacks := make([]int64, workers)
		for w := range shards {
			shards[w] = make([]*FreqHistogram, len(updates))
			for u := range shards[w] {
				shards[w][u] = NewFreqHistogram()
			}
			if lb != nil {
				lanes[w] = make([][]*data.ColVec, len(updates))
				for u := range lanes[w] {
					lanes[w][u] = make([]*data.ColVec, len(lb.folds[u]))
				}
			}
		}
		p.links[j].SetBuildColBatchHook(func(worker int, cb *data.ColBatch) {
			if cb.Live() == 0 {
				return
			}
			sh := shards[worker]
			if lb != nil && lb.observe(sh, lanes[worker], cb) {
				return
			}
			fallbacks[worker]++
			rows := cb.MaterializeRows()
			eachLive(cb, func(i int) {
				key := exec.JoinKeyOf(rows[i], buildKeys)
				for ui, u := range updates {
					sh[ui].AddN(key, p.buildWeight(rows[i], j, u.level))
				}
			})
		})
		p.links[j].SetBuildEndHook(func() {
			for w, sh := range shards {
				for ui, u := range updates {
					mergeShard(p.hists[u.level][j], sh[ui])
				}
				p.buildRowFallbacks += fallbacks[w]
			}
		})
	}
	p.laneProbe = p.planLaneProbe()
	nl := 0
	if p.laneProbe != nil {
		nl = len(p.laneProbe.lookups)
	}
	p.probeShards = make([]probeShard, p.links[p.m-1].Workers)
	for i := range p.probeShards {
		p.probeShards[i] = probeShard{
			sums:   make([]float64, p.m),
			sumSqs: make([]float64, p.m),
			vals:   make([]float64, nl),
			lanes:  make([]*data.ColVec, nl),
		}
	}
}

// mergeShard adds a worker shard into a shared histogram and empties
// the shard. An exact destination takes the pre-sized Merge, an
// approximate one the AddN loop.
func mergeShard(dst Histogram, src *FreqHistogram) {
	if fh, ok := dst.(*FreqHistogram); ok {
		fh.Merge(src)
	} else {
		src.Each(func(v data.Value, n int64) bool {
			dst.AddN(v, n)
			return true
		})
	}
	*src = FreqHistogram{}
}

// ObserveProbeColShard processes one bottom-stream ColBatch on behalf of
// worker w — the batched form of ObserveProbe, invoked lock-free by the
// worker that owns the batch: through the lane observer when the chain
// has a lane probe plan and the batch's key lanes are homogeneous ints,
// row by row otherwise. No estimate is published until FinishProbe
// merges the shards at the pass barrier.
func (p *PipelineEstimator) ObserveProbeColShard(w int, cb *data.ColBatch) {
	if cb.Live() == 0 {
		return
	}
	sh := &p.probeShards[w]
	if p.laneProbe != nil && bindLanes(sh.lanes, p.laneProbe.lookups, cb) {
		p.observeProbeLanes(sh, cb)
		return
	}
	sh.rowFallbacks++
	rows := cb.MaterializeRows()
	eachLive(cb, func(i int) { p.observeProbeShard(sh, rows[i]) })
}

// observeProbeLanes is the lane probe observer, with sh.lanes bound to
// the batch. Each live row performs t++, one CountInt per lookup (0 for
// NULL keys), the per-level products and moment accumulation and, under
// aggregation push-down, the output-distribution add — the arithmetic of
// ObserveProbe minus the publish check (sharded observation publishes at
// the barrier). OnProbeObserved fires once from FinishProbe with the
// merged count.
func (p *PipelineEstimator) observeProbeLanes(sh *probeShard, cb *data.ColBatch) {
	lp := p.laneProbe
	var od *data.ColVec
	if p.outDistHist != nil {
		od = cb.Col(p.outDistCol)
		if sh.outDist == nil {
			sh.outDist = NewFreqHistogram()
		}
	}
	sh.t += int64(cb.Live())
	eachLive(cb, func(i int) {
		for l := range lp.lookups {
			sh.vals[l] = lp.lookups[l].weight(sh.lanes[l], i)
		}
		for k, term := range lp.terms {
			delta := 1.0
			for _, l := range term {
				delta *= sh.vals[l]
			}
			sh.sums[k] += delta
			sh.sumSqs[k] += delta * delta
			if k == 0 && od != nil {
				sh.outDist.AddN(od.ValueAt(i), int64(delta))
			}
		}
	})
}

// observeProbeShard accumulates one bottom-stream tuple into a worker's
// probe shard: the shard-local body of ObserveProbe, for the row
// fallback.
func (p *PipelineEstimator) observeProbeShard(sh *probeShard, c data.Tuple) {
	sh.t++
	for k := 0; k < p.m; k++ {
		delta := p.probeDelta(c, k)
		sh.sums[k] += delta
		sh.sumSqs[k] += delta * delta
		if k == 0 && p.outDistHist != nil {
			if sh.outDist == nil {
				sh.outDist = NewFreqHistogram()
			}
			sh.outDist.AddN(c[p.outDistCol], int64(delta))
		}
	}
}

// FinishProbe merges the per-worker probe shards and freezes the
// estimator — the batched tier's MarkConverged, composed onto the bottom
// join's OnProbeEnd. It runs on the execution goroutine after the pass
// barrier.
func (p *PipelineEstimator) FinishProbe() {
	for i := range p.probeShards {
		sh := &p.probeShards[i]
		p.t += sh.t
		for k := 0; k < p.m; k++ {
			p.sums[k] += sh.sums[k]
			p.sumSqs[k] += sh.sumSqs[k]
		}
		if sh.outDist != nil && p.outDistHist != nil {
			p.outDistHist.Merge(sh.outDist)
		}
		p.probeRowFallbacks += sh.rowFallbacks
	}
	p.probeShards = nil
	if p.OnProbeObserved != nil {
		p.OnProbeObserved(p.t)
	}
	p.MarkConverged()
	for _, f := range p.afterConverge {
		f()
	}
}

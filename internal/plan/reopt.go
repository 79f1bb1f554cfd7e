package plan

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/obs"
	"qpi/internal/sketch"
	"qpi/internal/storage"
)

// This file implements mid-query re-optimization over the estimator
// framework's convergence signals: when a chain estimator freezes (its
// bottom probe pass completed, estimates once-exact) or a caller
// requests it, the next pipeline boundary re-costs the not-yet-started
// join segment below the boundary join using Fast-AGMS sketches of the
// base relations, and — under an explicit started/unstarted barrier —
// re-orders the segment's joins and/or swaps the bottom join's
// build/probe sides.
//
// The restructure window is the OnBeforePartition hook: it fires on the
// executor goroutine at the entry of a join's first partition pass,
// before the join has consumed or produced anything. Only a join that
// roots its own estimator chain (level 0) restructures, and only its
// probe subtree: the firing join itself is on the pull stack (its
// parent holds a reference), so it is a fixed anchor, and deeper chain
// levels would already have fed build observations into the chain's
// histograms, which cannot be split. Within the window the whole probe
// subtree is verified unstarted — zero tuples emitted, no partition
// pass begun — so discarding and re-attaching the chain estimators
// loses no state, and a single exec.Reorder wrapper restores the
// original column order above the restructured segment so nothing
// upstream notices.

// ReoptConfig tunes the Reoptimizer.
type ReoptConfig struct {
	// MinGain is the minimum relative cost improvement a restructuring
	// must promise before it is applied (0.05 = 5%).
	MinGain float64
	// Force evaluates at every boundary and applies the best legal
	// restructuring whenever it differs from the current shape,
	// regardless of gain. The differential suite uses it to guarantee
	// re-optimization actually fires.
	Force bool
	// ScoutRowLimit caps the base-table size the scout pass is willing
	// to sketch; larger tables make the segment non-restructurable
	// (sampling a sketch would bias the pairwise dot). 0 = no limit.
	ScoutRowLimit int
	// MaxPerms is the longest segment whose join orders are enumerated
	// exhaustively; longer segments use the greedy smallest-output
	// order. Default 4.
	MaxPerms int
}

// DefaultReoptConfig returns the production defaults.
func DefaultReoptConfig() ReoptConfig {
	return ReoptConfig{MinGain: 0.05, ScoutRowLimit: 1 << 20, MaxPerms: 4}
}

// PlanChange records one applied restructuring, for the trace log and
// the differential suite's non-vacuousness assertion.
type PlanChange struct {
	// Trigger is what caused the evaluation: "converged" (a chain
	// estimator froze), "requested" (RequestReopt), or "boundary"
	// (Force-mode evaluation at a partition boundary).
	Trigger string
	// Anchor is the boundary join that fired; its probe subtree was
	// restructured.
	Anchor string
	// OldOrder and NewOrder list the segment joins' build relations
	// top-down before and after.
	OldOrder []string
	NewOrder []string
	// Swapped reports a build/probe side swap of the new bottom join.
	Swapped bool
	// Gain is the modeled relative cost improvement.
	Gain float64
	// AllUnstarted is the barrier witness: every operator of the
	// restructured subtree had emitted zero tuples and begun no
	// partition pass at commit time. Always true by construction; the
	// differential suite asserts it.
	AllUnstarted bool
}

// ReoptStats is a snapshot of the Reoptimizer's counters.
type ReoptStats struct {
	Considered          int64 // boundary evaluations that ran
	Applied             int64 // restructurings committed
	SkippedStarted      int64 // barrier refused: subtree already active
	SkippedPushdown     int64 // chain carries aggregation push-down
	SkippedUnresolvable int64 // keys/sources outside the supported shape
	Converged           int64 // chain convergence signals received
	Scouts              int64 // scout sketch passes over base relations
}

// Reoptimizer re-costs and restructures unstarted join segments at
// pipeline boundaries. Wire it with Install after core.Attach and
// before execution; all evaluation runs on the executor goroutine
// (RequestReopt alone is safe from any goroutine).
type Reoptimizer struct {
	cfg ReoptConfig
	att *core.Attachment

	ctx           context.Context
	tr            *obs.Tracer
	sketches      *core.SketchSet
	onRestructure func(root exec.Operator, mutate func())
	root          exec.Operator

	requested atomic.Bool

	considered          atomic.Int64
	applied             atomic.Int64
	skippedStarted      atomic.Int64
	skippedPushdown     atomic.Int64
	skippedUnresolvable atomic.Int64
	converged           atomic.Int64
	scoutPasses         atomic.Int64

	mu      sync.Mutex
	changes []PlanChange
	scouts  map[scoutKey]*sketch.ColumnSketch
}

// NewReoptimizer creates a Reoptimizer over an attached plan.
func NewReoptimizer(cfg ReoptConfig, att *core.Attachment) *Reoptimizer {
	if cfg.MaxPerms <= 0 {
		cfg.MaxPerms = 4
	}
	return &Reoptimizer{cfg: cfg, att: att, scouts: map[scoutKey]*sketch.ColumnSketch{}}
}

// SetContext installs the cancellation context newly created operators
// (the Reorder wrapper) are bound to.
func (r *Reoptimizer) SetContext(ctx context.Context) { r.ctx = ctx }

// SetTracer routes restructure events into tr and binds it to newly
// created operators.
func (r *Reoptimizer) SetTracer(tr *obs.Tracer) { r.tr = tr }

// SetSketches registers the plan's ride-along sketch set so restructured
// joins get their sketch hooks re-installed (ResetObservers wipes them).
func (r *Reoptimizer) SetSketches(s *core.SketchSet) { r.sketches = s }

// SetOnRestructure installs the callback every committed restructuring
// runs through, on the executor goroutine. f must call mutate, which
// relinks the plan, exactly once; the progress monitor (Monitor.Refresh)
// runs it and its own re-decomposition under one write lock, so
// goroutines walking the plan under its read lock never see a half-made
// relink. Without a callback the mutation runs directly.
func (r *Reoptimizer) SetOnRestructure(f func(root exec.Operator, mutate func())) {
	r.onRestructure = f
}

// RequestReopt asks for an evaluation at the next pipeline boundary.
// Safe from any goroutine; between boundaries it is a single atomic
// flag, so requesting repeatedly is free.
func (r *Reoptimizer) RequestReopt() { r.requested.Store(true) }

// Stats returns a snapshot of the counters.
func (r *Reoptimizer) Stats() ReoptStats {
	return ReoptStats{
		Considered:          r.considered.Load(),
		Applied:             r.applied.Load(),
		SkippedStarted:      r.skippedStarted.Load(),
		SkippedPushdown:     r.skippedPushdown.Load(),
		SkippedUnresolvable: r.skippedUnresolvable.Load(),
		Converged:           r.converged.Load(),
		Scouts:              r.scoutPasses.Load(),
	}
}

// Changes returns a copy of the applied-restructuring log.
func (r *Reoptimizer) Changes() []PlanChange {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]PlanChange(nil), r.changes...)
}

// Install hooks the Reoptimizer into every hash join's partition
// boundary and every chain estimator's convergence signal.
func (r *Reoptimizer) Install(root exec.Operator) {
	r.root = root
	exec.Walk(root, func(op exec.Operator) {
		if hj, ok := op.(*exec.HashJoin); ok {
			prev := hj.OnBeforePartition
			hj.OnBeforePartition = func(j *exec.HashJoin) {
				if prev != nil {
					prev(j)
				}
				r.atBoundary(j)
			}
		}
	})
	for _, pe := range r.att.Chains {
		r.hookConverged(pe)
	}
}

func (r *Reoptimizer) hookConverged(pe *core.PipelineEstimator) {
	prev := pe.OnConverged
	pe.OnConverged = func() {
		if prev != nil {
			prev()
		}
		r.converged.Add(1)
		r.requested.Store(true)
	}
}

// candJoin is one segment join with its scouted statistics.
type candJoin struct {
	j          *exec.HashJoin
	qcol       data.Column // the probe key's bottom-stream column, qualified
	bottomCols []int       // its index in the bottom stream's schema
	buildRows  float64     // scouted build input size
	pairs      float64     // Fast-AGMS estimate of |build ⋈key C|
	label      string
}

// atBoundary runs on the executor goroutine when join j is about to
// start its partition passes.
func (r *Reoptimizer) atBoundary(j *exec.HashJoin) {
	trigger := "boundary"
	if r.requested.Swap(false) {
		trigger = "requested"
		if r.converged.Load() > 0 {
			trigger = "converged"
		}
	} else if !r.cfg.Force {
		// Normal mode evaluates only on a convergence signal or an
		// explicit request: scouting costs a pass over base relations,
		// and "maybe re-order" is not worth it without new information.
		return
	}
	r.considered.Add(1)

	pe := r.att.ChainOf[j]
	if pe == nil {
		return
	}
	if r.att.LevelOf[j] != 0 {
		// Deeper chain levels have already fed build observations into
		// the chain's histograms; the chain cannot be split losslessly.
		r.skippedStarted.Add(1)
		return
	}
	if pe.HasOutputDistribution() {
		r.skippedPushdown.Add(1)
		return
	}
	links := pe.Links()
	if len(links) < 2 {
		return // no segment below the anchor
	}
	seg := make([]*exec.HashJoin, 0, len(links)-1)
	for _, l := range links[1:] {
		hj, ok := l.Join.(*exec.HashJoin)
		if !ok {
			r.skippedUnresolvable.Add(1)
			return
		}
		seg = append(seg, hj)
	}
	if exec.Operator(seg[0]) != j.Probe() {
		r.skippedUnresolvable.Add(1)
		return
	}
	if !subtreeUnstarted(j.Probe()) {
		r.skippedStarted.Add(1)
		return
	}
	c := seg[len(seg)-1].Probe()

	cands := make([]*candJoin, len(seg))
	for i, s := range seg {
		cols, ok := pe.BottomSourceCols(i + 1)
		if !ok || len(cols) != 1 {
			r.skippedUnresolvable.Add(1)
			return
		}
		bk := s.BuildKeys()
		if len(bk) != 1 {
			r.skippedUnresolvable.Add(1)
			return
		}
		bs, ok := r.scout(s.Build(), bk[0])
		if !ok {
			r.skippedUnresolvable.Add(1)
			return
		}
		os, ok := r.scout(c, cols[0])
		if !ok {
			r.skippedUnresolvable.Add(1)
			return
		}
		pairs, err := sketch.JoinSizeEstimate(bs.AGMS, os.AGMS)
		if err != nil {
			r.skippedUnresolvable.Add(1)
			return
		}
		cands[i] = &candJoin{
			j:          s,
			qcol:       c.Schema().Cols[cols[0]],
			bottomCols: cols,
			buildRows:  float64(bs.Rows),
			pairs:      pairs,
			label:      buildLabel(s),
		}
	}
	cs, ok := r.scout(c, cands[0].bottomCols[0])
	if !ok {
		r.skippedUnresolvable.Add(1)
		return
	}
	bottomRows := float64(cs.Rows)

	curCost := orderCost(cands, bottomRows, false)
	wantSchema := seg[0].Schema()
	type plan struct {
		order   []*candJoin
		swap    bool
		cost    float64
		relinks [][]int
		perm    []int
	}
	var best *plan
	for _, order := range candidateOrders(cands, r.cfg.MaxPerms) {
		for _, swap := range swapChoices(order, bottomRows, r.cfg.Force) {
			cost := orderCost(order, bottomRows, swap)
			if best != nil && cost >= best.cost {
				continue
			}
			relinks, perm, ok := simulate(order, swap, c.Schema(), wantSchema)
			if !ok {
				continue
			}
			best = &plan{order: order, swap: swap, cost: cost, relinks: relinks, perm: perm}
		}
	}
	if best == nil {
		r.skippedUnresolvable.Add(1)
		return
	}
	differs := best.swap || !sameOrder(best.order, cands)
	if !differs {
		return
	}
	gain := 0.0
	if curCost > 0 {
		gain = (curCost - best.cost) / curCost
	}
	if !r.cfg.Force && gain < r.cfg.MinGain {
		return
	}

	r.commit(j, pe, best.order, best.swap, best.relinks, best.perm, c, cands, gain, trigger)
}

// commit applies one restructuring. Runs on the executor goroutine
// inside the firing join's OnBeforePartition window.
func (r *Reoptimizer) commit(j *exec.HashJoin, pe *core.PipelineEstimator,
	order []*candJoin, swap bool, relinks [][]int, perm []int,
	c exec.Operator, oldOrder []*candJoin, gain float64, trigger string) {

	// Barrier witness, re-verified immediately before mutation.
	allUnstarted := subtreeUnstarted(j.Probe())
	if !allUnstarted {
		r.skippedStarted.Add(1)
		return
	}

	// The old chain's hook compositions cannot be unpicked hook by
	// hook; drop every observer on the chain's joins and re-attach
	// fresh estimators below. Safe exactly because nothing under (or
	// at) the anchor has observed anything yet — the anchor roots its
	// chain and its own partition pass has not begun.
	mutate := func() {
		for _, l := range pe.Links() {
			if hj, ok := l.Join.(*exec.HashJoin); ok {
				hj.ResetObservers()
			}
		}

		stream := c
		for i := len(order) - 1; i >= 0; i-- {
			s := order[i].j
			if i == len(order)-1 && swap {
				s.Relink(c, relinks[i])
				s.SwapSides()
			} else {
				s.Relink(stream, relinks[i])
			}
			stream = s
		}
		reorder := exec.NewReorder(stream, perm)
		j.ReplaceProbe(reorder)

		newTop := order[0].j
		r.att.ReattachChain(pe, j, newTop)
		for _, npe := range []*core.PipelineEstimator{r.att.ChainOf[j], r.att.ChainOf[newTop]} {
			if npe != nil {
				r.hookConverged(npe)
			}
		}
		if r.sketches != nil {
			r.sketches.Rewire(j)
			for _, o := range order {
				r.sketches.Rewire(o.j)
			}
		}
		exec.Bind(reorder, r.ctx)
		exec.BindTracer(reorder, r.tr)
	}
	if r.onRestructure != nil {
		r.onRestructure(r.root, mutate)
	} else {
		mutate()
	}

	change := PlanChange{
		Trigger:      trigger,
		Anchor:       j.Name(),
		OldOrder:     labels(oldOrder),
		NewOrder:     labels(order),
		Swapped:      swap,
		Gain:         gain,
		AllUnstarted: allUnstarted,
	}
	r.mu.Lock()
	r.changes = append(r.changes, change)
	r.mu.Unlock()
	r.applied.Add(1)
	if r.tr != nil {
		r.tr.Mark(j.Name(), "reopt", int64(len(order)), 0)
		r.tr.Transition(j.Name(), "reopt",
			fmt.Sprintf("%v", change.OldOrder), fmt.Sprintf("%v", change.NewOrder), 0)
	}
}

// subtreeUnstarted verifies the barrier over one subtree: no operator
// has emitted or finished, and no hash join has begun partitioning.
func subtreeUnstarted(top exec.Operator) bool {
	ok := true
	exec.Walk(top, func(op exec.Operator) {
		st := op.Stats()
		if st.Emitted.Load() > 0 || st.IsDone() {
			ok = false
		}
		if hj, is := op.(*exec.HashJoin); is && hj.PartitionStarted() {
			ok = false
		}
	})
	return ok
}

// orderCost models one candidate order (top-down) as a cascade of
// selectivity-scaled grace joins: each level pays twice its build size
// (build rows are partitioned and inserted into hash tables; stream
// rows are partitioned and probed), its stream size, and its output
// size; the output feeds the next level. Inner-join output cardinality
// is orientation-symmetric — without the build weight a side swap could
// never change the cost.
func orderCost(order []*candJoin, bottomRows float64, swapBottom bool) float64 {
	cost := 0.0
	s := bottomRows
	for i := len(order) - 1; i >= 0; i-- {
		cj := order[i]
		build, stream := cj.buildRows, s
		if i == len(order)-1 && swapBottom {
			build, stream = stream, build
		}
		sel := 0.0
		if cj.buildRows > 0 && bottomRows > 0 {
			sel = cj.pairs / (cj.buildRows * bottomRows)
		}
		out := stream * build * sel
		cost += 2*build + stream + out
		s = out
	}
	return cost
}

// candidateOrders enumerates join orders: every permutation for short
// segments, the greedy smallest-expected-output order (plus identity)
// for long ones.
func candidateOrders(cands []*candJoin, maxPerms int) [][]*candJoin {
	if len(cands) <= maxPerms {
		var out [][]*candJoin
		permute(cands, 0, &out)
		return out
	}
	greedy := append([]*candJoin(nil), cands...)
	sort.SliceStable(greedy, func(a, b int) bool { return greedy[a].pairs > greedy[b].pairs })
	// Largest expected output goes on top (last to apply): the most
	// selective joins run deepest, shrinking the stream earliest.
	return [][]*candJoin{cands, greedy}
}

func permute(cands []*candJoin, k int, out *[][]*candJoin) {
	if k == len(cands) {
		*out = append(*out, append([]*candJoin(nil), cands...))
		return
	}
	for i := k; i < len(cands); i++ {
		cands[k], cands[i] = cands[i], cands[k]
		permute(cands, k+1, out)
		cands[k], cands[i] = cands[i], cands[k]
	}
}

// swapChoices offers the bottom side swap when the scouted build input
// of the would-be bottom join outweighs the bottom stream (outright
// under Force, by 2x otherwise — swapping has restructuring overhead).
func swapChoices(order []*candJoin, bottomRows float64, force bool) []bool {
	bottom := order[len(order)-1]
	threshold := 2 * bottomRows
	if force {
		threshold = bottomRows
	}
	if bottom.j.Type() == exec.InnerJoin && bottom.buildRows > threshold {
		return []bool{false, true}
	}
	return []bool{false}
}

func sameOrder(a, b []*candJoin) bool {
	for i := range a {
		if a[i].j != b[i].j {
			return false
		}
	}
	return true
}

func labels(order []*candJoin) []string {
	out := make([]string, len(order))
	for i, c := range order {
		out[i] = c.label
	}
	return out
}

// buildLabel names a join by its build relation's qualifier.
func buildLabel(j *exec.HashJoin) string {
	cols := j.Build().Schema().Cols
	if len(cols) > 0 && cols[0].Table != "" {
		return cols[0].Table
	}
	return j.Build().Name()
}

// simulate dry-runs one candidate order bottom-up, resolving every
// join's probe key by qualified column identity in the simulated
// stream schemas (indexes shift with the order), and derives the
// column permutation restoring the original segment-top schema. Any
// resolution failure or non-bijective mapping makes the order illegal.
func simulate(order []*candJoin, swapBottom bool, cSchema, want *data.Schema) (relinks [][]int, perm []int, ok bool) {
	stream := cSchema
	relinks = make([][]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		cj := order[i]
		idx := stream.Resolve(cj.qcol.Table, cj.qcol.Name)
		if idx < 0 {
			return nil, nil, false
		}
		relinks[i] = []int{idx}
		if i == len(order)-1 && swapBottom {
			stream = cSchema.Concat(cj.j.Build().Schema())
		} else {
			stream = cj.j.Build().Schema().Concat(stream)
		}
	}
	if stream.Len() != want.Len() {
		return nil, nil, false
	}
	perm = make([]int, want.Len())
	seen := make([]bool, want.Len())
	for p, col := range want.Cols {
		idx := stream.Resolve(col.Table, col.Name)
		if idx < 0 || seen[idx] {
			return nil, nil, false
		}
		seen[idx] = true
		perm[p] = idx
	}
	return relinks, perm, true
}

// scoutKey caches scout sketches per base table, filter, and column:
// repeated boundary evaluations re-read nothing.
type scoutKey struct {
	tab *storage.Table
	flt exec.Operator // nil for unfiltered scans
	col int
}

// scout sketches one column of a base relation (a Scan, or a Filter
// directly over a Scan — the filter predicate is applied per tuple so
// the sketch summarizes the filtered stream). Sources of any other
// shape, and tables beyond ScoutRowLimit, are not scoutable.
func (r *Reoptimizer) scout(src exec.Operator, col int) (*sketch.ColumnSketch, bool) {
	var tab *storage.Table
	var pred expr.Expr
	var flt exec.Operator
	switch o := src.(type) {
	case *exec.Scan:
		tab = o.Table()
	case *exec.Filter:
		sc, ok := o.Children()[0].(*exec.Scan)
		if !ok {
			return nil, false
		}
		tab = sc.Table()
		pred = o.Pred()
		flt = o
	default:
		return nil, false
	}
	if r.cfg.ScoutRowLimit > 0 && tab.NumRows() > r.cfg.ScoutRowLimit {
		if r.tr != nil {
			r.tr.Mark(src.Name(), "reopt-scout-skip", int64(tab.NumRows()), 0)
		}
		return nil, false
	}
	key := scoutKey{tab: tab, flt: flt, col: col}
	r.mu.Lock()
	cs, hit := r.scouts[key]
	r.mu.Unlock()
	if hit {
		return cs, true
	}
	r.scoutPasses.Add(1)
	cs = sketch.NewColumnSketch(sketch.DefaultConfig())
	it := tab.SequentialOrder()
	for t := it.Next(); t != nil; t = it.Next() {
		if pred != nil && !pred.Eval(t).IsTrue() {
			continue
		}
		cs.Observe(t[col])
	}
	r.mu.Lock()
	r.scouts[key] = cs
	r.mu.Unlock()
	return cs, true
}

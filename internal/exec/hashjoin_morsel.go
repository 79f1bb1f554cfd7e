package exec

import (
	"sync"

	"qpi/internal/data"
)

// This file implements morsel-driven parallel scans for the batched
// tier's partition passes (HyPer-style, after Leis et al.): when a pass's
// child is a plain sequential Scan and SetParallelism(k ≥ 2) is set, the
// pass skips the single-reader pipeline entirely — k scan workers claim
// fixed-size block-range morsels from an atomic counter
// (storage.MorselSource), pivot and scatter their rows lane-to-lane into
// worker-private partition buffers, and merge at the pass barrier. A pass
// whose child is not an eligible scan runs the serial vectorized scatter
// instead, so a join can run its build pass morselized and its probe
// pass not.
//
// Hook contract under concurrent scans. The worker-indexed span hooks
// (OnBuildColBatch/OnProbeColBatch) fire lock-free on the worker that
// owns the batch — the estimation framework backs them with per-worker
// shards merged at the barrier, and the merge order is fixed (worker
// 0..K-1), so estimator state is bit-identical to the serial pass:
// histogram counts are integers and the probe moment sums accumulate
// integer-valued float64 deltas, both order-independent. Per-tuple hooks
// (Scan.OnTuple, OnBuildTuple/OnProbeTuple — the progress monitors'
// sampling tickers and the estimators of a partly batched chain) fire
// under a per-pass mutex: exclusive but order-nondeterministic, which is
// sound because those consumers only bump counters, add commuting
// histogram counts and read atomic Stats snapshots. The worker join
// (WaitGroup) is the happens-before edge to everything the coordinator
// does after the pass.
//
// The scan's punctuation contract stays trivially safe: only sequential
// scans are morselable, so OnSampleEnd can never fire, and MarkDone plus
// the trace span end fire exactly once on the coordinator after the
// barrier (Scan.finishMorselPass).

// SetMorselBlocks overrides the number of blocks per morsel claim
// (≤ 0 restores storage.DefaultMorselBlocks). Tests use single-block
// morsels to force many claims on small tables.
func (j *HashJoin) SetMorselBlocks(n int) *HashJoin {
	j.morselBlocks = n
	return j
}

// morselScanOf returns the pass child as a morsel-eligible scan, or nil
// when the pass must run serially: a memory budget forcing serial
// scatter, fewer than two workers, a non-Scan child, or a sampled scan
// (whose global sample-prefix order is inherently serial).
func (j *HashJoin) morselScanOf(child Operator) *Scan {
	if j.memBudget > 0 || j.Workers() < 2 {
		return nil
	}
	s, ok := child.(*Scan)
	if !ok || !s.morselable() {
		return nil
	}
	return s
}

// colMorselPassState carries the per-worker lane accumulators of one
// morsel pass: each worker scatters into private per-partition
// ColBatch lane buffers, merged lane-to-lane at the barrier.
type colMorselPassState struct {
	locals [][]*data.ColBatch
	rows   []int64
	errs   []error
	hookMu sync.Mutex
	wg     sync.WaitGroup
}

func newColMorselPassState(workers, parts int) *colMorselPassState {
	st := &colMorselPassState{
		locals: make([][]*data.ColBatch, workers),
		rows:   make([]int64, workers),
		errs:   make([]error, workers),
	}
	for w := range st.locals {
		st.locals[w] = make([]*data.ColBatch, parts)
	}
	return st
}

// mergeColLocals folds the worker-private partition lanes into the
// shared partition buffers, in fixed worker order so the merged row
// order is deterministic. The first buffer seen for a partition is
// adopted wholesale — no copy — and later workers' rows append
// lane-to-lane before their buffers return to the pool.
func (j *HashJoin) mergeColLocals(parts []*data.ColBatch, locals [][]*data.ColBatch) {
	for p := 0; p < j.parts; p++ {
		for w := range locals {
			l := locals[w][p]
			if l == nil {
				continue
			}
			locals[w][p] = nil
			if parts[p] == nil {
				parts[p] = l
				continue
			}
			parts[p].AppendBatchFrom(l)
			data.PutColBatch(l)
		}
	}
}

// partitionPassColMorsel is the morsel pass: each worker pivots
// its batches into a worker-private ColBatch, fires the worker-indexed
// columnar hook lock-free, and scatters lane-to-lane off the flat key
// lane into worker-private partition lanes.
func (j *HashJoin) partitionPassColMorsel(cfg *colPassConfig, sc *Scan) error {
	workers := j.Workers()
	src := sc.beginMorselPass(j.morselBlocks)
	st := newColMorselPassState(workers, j.parts)
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go func(w int) {
			defer st.wg.Done()
			local := st.locals[w]
			var cb data.ColBatch
			var scratch data.Tuple // per-worker multi-key extraction scratch
			st.errs[w] = sc.drainMorsels(src, func(b data.Batch) error {
				st.rows[w] += int64(len(b))
				if sc.OnTuple != nil || cfg.tupleHook != nil {
					st.hookMu.Lock()
					if sc.OnTuple != nil {
						for _, t := range b {
							sc.OnTuple(t)
						}
					}
					if cfg.tupleHook != nil {
						for _, t := range b {
							cfg.tupleHook(t)
						}
					}
					st.hookMu.Unlock()
				}
				cb.SetRows(b, cfg.width)
				if cfg.colBatchHook != nil {
					cfg.colBatchHook(w, &cb)
				}
				j.scatterColLocal(local, &cb, cfg.keys, cfg.keepNull, cfg.width, &scratch)
				return nil
			})
		}(w)
	}
	st.wg.Wait()
	for _, err := range st.errs {
		if err != nil {
			return err
		}
	}
	sc.finishMorselPass()
	for _, n := range st.rows {
		cfg.rows.Add(n)
	}
	j.mergeColLocals(cfg.colParts, st.locals)
	return nil
}

// scatterColLocal scatters one batch's rows lane-to-lane into the
// worker-private partition lanes. A single homogeneous integer key
// column partitions straight off the flat Ints lane, hashing the exact
// Value JoinKeyOf would produce, so the partition layout matches the
// tuple path's scatter bit for bit; other key shapes extract the key off the lanes
// per row via the worker's scratch tuple.
func (j *HashJoin) scatterColLocal(local []*data.ColBatch, cb *data.ColBatch, keys []int, keepNull bool, width int, scratch *data.Tuple) {
	appendTo := func(p, i int) {
		dst := local[p]
		if dst == nil {
			dst = data.GetColBatch()
			dst.BeginBuild(width)
			local[p] = dst
		}
		dst.AppendFrom(cb, i)
	}
	if len(keys) == 1 {
		if kv := cb.Col(keys[0]); kv.Homogeneous() && kv.Kind == data.KindInt {
			nparts := uint64(j.parts)
			for i := 0; i < cb.NRows; i++ {
				if kv.Nulls.Get(i) {
					if keepNull {
						appendTo(0, i)
					}
					continue
				}
				appendTo(int(hashValue(data.Int(kv.Ints[i]))%nparts), i)
			}
			return
		}
	}
	for i := 0; i < cb.NRows; i++ {
		k := colJoinKeyAt(cb, keys, i, scratch)
		p := 0
		if k.IsNull() {
			if !keepNull {
				continue
			}
		} else {
			p = int(hashValue(k) % uint64(j.parts))
		}
		appendTo(p, i)
	}
}

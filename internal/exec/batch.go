package exec

import "qpi/internal/data"

// This file is the row-batch contract underneath the columnar layer
// (colexec.go). Scan, HashJoin and Reorder move data.DefaultBatchSize
// tuples per NextBatch call; every other operator lifts to the contract
// through AsBatch, which accumulates tuples from Next. The batched tier
// does not drive plans through NextBatch: roots pull NextColBatch, and a
// ColOperator adapter (colAdapter) uses AsBatch to re-expose row-only
// operators — sorts, merge and nested-loops joins, user operators — as
// columnar batches.

// BatchOperator is the batch-at-a-time executor contract. NextBatch
// returns the next batch of output tuples; an empty (or nil) batch signals
// end of stream. The returned slice is valid only until the next NextBatch
// call (see data.Batch); the tuples it references are stable.
type BatchOperator interface {
	Operator
	NextBatch() (data.Batch, error)
}

// AsBatch returns op as a BatchOperator: operators with a native batch
// path are returned as-is, anything else (sort, merge join, nested loops,
// user operators) is wrapped in an adapter that accumulates tuples from
// Next into batches. Stats, hooks and schema pass through unchanged.
func AsBatch(op Operator) BatchOperator {
	if b, ok := op.(BatchOperator); ok {
		return b
	}
	return &batchAdapter{Operator: op}
}

// batchAdapter lifts a tuple-at-a-time Operator to the batch contract.
type batchAdapter struct {
	Operator
	buf data.Batch
}

func (a *batchAdapter) NextBatch() (data.Batch, error) {
	if a.buf == nil {
		a.buf = make(data.Batch, 0, data.BatchSize())
	}
	b := a.buf[:0]
	for len(b) < cap(b) {
		t, err := a.Operator.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			break
		}
		b = append(b, t)
	}
	a.buf = b
	return b, nil
}

// Unwrap exposes the adapted operator (for callers that type-switch).
func (a *batchAdapter) Unwrap() Operator { return a.Operator }

// AsTuples returns op as a plain Operator driven through its batch path:
// Next serves tuples out of an internally pulled batch. All native batch
// operators also implement Next directly, so this adapter exists for
// consumers that want tuple-at-a-time delivery with batch-sized pulls
// underneath (and for symmetry tests).
func AsTuples(op BatchOperator) Operator {
	return &tupleAdapter{BatchOperator: op}
}

// tupleAdapter serves single tuples from an underlying batch stream.
type tupleAdapter struct {
	BatchOperator
	cur  data.Batch
	pos  int
	done bool
}

func (a *tupleAdapter) Next() (data.Tuple, error) {
	for {
		if a.pos < len(a.cur) {
			t := a.cur[a.pos]
			a.pos++
			return t, nil
		}
		if a.done {
			return nil, nil
		}
		b, err := a.BatchOperator.NextBatch()
		if err != nil {
			return nil, err
		}
		if len(b) == 0 {
			a.done = true
			return nil, nil
		}
		a.cur, a.pos = b, 0
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"qpi/internal/data"
)

// BenchmarkColShardBarrierMerge times the build-end barrier of the
// batched tier's estimator hooks: two worker shards filled off int key
// lanes, then merged into the shared histogram by the build-end hook.
// Each key lands in shard 0, shard 1 or both, so the merged histogram
// holds exactly keys distinct values. Only the barrier hook is timed.
func BenchmarkColShardBarrierMerge(b *testing.B) {
	for _, keys := range []int{75_000, 300_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			const workers = 2
			rng := rand.New(rand.NewSource(int64(keys)))
			var lanes [workers][]data.Tuple
			for _, k := range rng.Perm(keys) {
				switch rng.Intn(3) {
				case 0, 1:
					w := rng.Intn(workers)
					lanes[w] = append(lanes[w], data.Tuple{data.Int(int64(k))})
				default:
					for w := range lanes {
						lanes[w] = append(lanes[w], data.Tuple{data.Int(int64(k))})
					}
				}
			}
			var batches [workers]*data.ColBatch
			for w := range batches {
				batches[w] = &data.ColBatch{}
				batches[w].FromTuples(lanes[w], 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var buildHook func(int, *data.ColBatch)
				var endHook func()
				link := ChainLink{
					Join:                 dummyJoin(),
					BuildWidth:           1,
					BuildKeys:            []int{0},
					ProbeKeys:            []int{0},
					SetBuildHook:         func(func(data.Tuple)) {},
					Workers:              workers,
					SetBuildColBatchHook: func(f func(int, *data.ColBatch)) { buildHook = f },
					SetBuildEndHook:      func(f func()) { endHook = f },
				}
				pe, err := NewPipelineEstimator([]ChainLink{link}, func() float64 { return 0 })
				if err != nil {
					b.Fatal(err)
				}
				for w, cb := range batches {
					buildHook(w, cb)
				}
				b.StartTimer()
				endHook()
				if d := pe.Histogram(0, 0).(*FreqHistogram).Distinct(); d != int64(keys) {
					b.Fatalf("merged %d distinct keys, want %d", d, keys)
				}
			}
		})
	}
}

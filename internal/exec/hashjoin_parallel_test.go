package exec

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Tests for the partition-parallel join (second) phase. The contract under
// test is stronger than multiset equality (joinmodes_test covers that
// across every mode): given identical partition contents, the parallel
// join phase must emit the exact tuple sequence of the serial join phase —
// clustered by partition, probe order within each partition — with all
// hooks firing on the consumer goroutine, cancellation honoured mid-join,
// and no goroutine or spill descriptor outliving the operator.
//
// Exact-order comparisons pin the scatter pass serial via a memory budget
// (Workers() == 1 when a budget is set) so both runs see identical
// partition contents on any GOMAXPROCS; the join phase still fans out
// (JoinWorkers is not budget-gated).

// drainExact pulls every output row in order, via Next or NextColBatch,
// copying tuples out of reused batch buffers.
func drainExact(t *testing.T, j *HashJoin, batched bool) []string {
	t.Helper()
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	var out []string
	if batched {
		rows, err := DrainCol(j)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range rows {
			out = append(out, tu.String())
		}
	} else {
		for {
			tu, err := j.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tu == nil {
				break
			}
			out = append(out, tu.String())
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// joinUnderTest builds a two-table join with duplicate and NULL keys on
// both sides, a serial-scatter budget, and the given join-phase
// parallelism.
func joinUnderTest(jt JoinType, budget int64, workers int, seed int64) *HashJoin {
	rng := rand.New(rand.NewSource(seed))
	build := randKeys(rng, 400, 37, 0.15)
	probe := randKeys(rng, 600, 37, 0.15)
	j := NewHashJoinMulti(
		NewScan(kvTable("b", build), ""),
		NewScan(kvTable("p", probe), ""),
		[]int{0}, []int{0}, jt,
	)
	j.SetMemoryBudget(budget)
	j.SetParallelism(workers)
	return j
}

func TestParallelJoinOutputOrderMatchesSerial(t *testing.T) {
	for _, jt := range []JoinType{InnerJoin, SemiJoin, AntiJoin, ProbeOuterJoin} {
		for _, spill := range []bool{false, true} {
			budget := int64(1 << 30) // serial scatter, nothing spills
			name := jt.String() + "/mem"
			if spill {
				budget = 512 // serial scatter, everything spills
				name = jt.String() + "/spill"
			}
			t.Run(name, func(t *testing.T) {
				want := drainExact(t, joinUnderTest(jt, budget, 1, 99), true)
				for _, batched := range []bool{true, false} {
					j := joinUnderTest(jt, budget, 4, 99)
					if got := j.JoinWorkers(); got != 4 {
						t.Fatalf("JoinWorkers() = %d, want 4", got)
					}
					have := drainExact(t, j, batched)
					if j.joinPar == nil {
						t.Fatal("parallel join phase never engaged")
					}
					if len(have) != len(want) {
						t.Fatalf("batched=%v: %d rows, serial produced %d", batched, len(have), len(want))
					}
					for i := range have {
						if have[i] != want[i] {
							t.Fatalf("batched=%v: order diverges at row %d: got %s want %s",
								batched, i, have[i], want[i])
						}
					}
					if spill && j.Stats().SpillFiles.Load() == 0 {
						t.Fatal("spill variant never spilled")
					}
				}
			})
		}
	}
}

// TestParallelJoinHooksAndStats: OnOutput fires once per emitted tuple in
// emission order on the consumer goroutine (a plain counter in the hook is
// the -race witness), the emission counter agrees, and the probe-progress
// fraction converges to 1.
func TestParallelJoinHooksAndStats(t *testing.T) {
	// NULL-free keys: dropped NULL probe rows never reach the join pass, so
	// only a NULL-free probe input converges to fraction exactly 1 (in
	// serial mode too).
	rng := rand.New(rand.NewSource(7))
	j := NewHashJoinMulti(
		NewScan(kvTable("b", randKeys(rng, 400, 37, 0)), ""),
		NewScan(kvTable("p", randKeys(rng, 600, 37, 0)), ""),
		[]int{0}, []int{0}, InnerJoin,
	)
	j.SetMemoryBudget(1 << 30)
	j.SetParallelism(4)
	var hooked []string
	j.OnOutput = func(tu data.Tuple) { hooked = append(hooked, tu.String()) }
	got := drainExact(t, j, true)
	if len(hooked) != len(got) {
		t.Fatalf("OnOutput fired %d times for %d rows", len(hooked), len(got))
	}
	for i := range got {
		if hooked[i] != got[i] {
			t.Fatalf("OnOutput order diverges at %d", i)
		}
	}
	if e := j.Stats().Emitted.Load(); e != int64(len(got)) {
		t.Fatalf("Emitted = %d, want %d", e, len(got))
	}
	if f := j.JoinedProbeFraction(); f != 1 {
		t.Fatalf("JoinedProbeFraction = %v after drain, want 1", f)
	}
}

// TestCancelParallelJoinPhase cancels from the OnOutput hook, i.e. while
// join-phase workers are mid-flight behind the consumer: the run must
// return ctx.Err() promptly, close every spill descriptor, and reap every
// worker goroutine. (The Cancel prefix places this in the leakcheck
// suite.)
func TestCancelParallelJoinPhase(t *testing.T) {
	for _, batched := range []bool{true, false} {
		before := runtime.NumGoroutine()
		fs := vfs.NewFaultFS(nil)
		j := joinUnderTest(InnerJoin, 512, 4, 31)
		j.SetSpillFS(fs)
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		j.OnOutput = func(data.Tuple) {
			if n++; n == 50 {
				cancel()
			}
		}
		Bind(j, ctx)
		var err error
		if batched {
			_, err = RunCol(j)
		} else {
			_, err = Run(j)
		}
		cancel()
		expectCanceled(t, err)
		if open := fs.OpenFiles(); open != 0 {
			t.Errorf("batched=%v: %d spill files open after cancelled parallel join", batched, open)
		}
		expectNoExtraGoroutines(t, before)
	}
}

// TestCancelParallelJoinUndrained closes the operator mid-drain without a
// context at all: Close alone must stop workers that are blocked sending
// into full partition queues.
func TestCancelParallelJoinUndrained(t *testing.T) {
	before := runtime.NumGoroutine()
	j := joinUnderTest(InnerJoin, 1<<30, 4, 13)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	// Pull a single tuple so the join phase has started, then abandon.
	if tu, err := j.Next(); err != nil || tu == nil {
		t.Fatalf("first Next = (%v, %v)", tu, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	expectNoExtraGoroutines(t, before)
}

// TestSpillFaultParallelJoinWorkers injects read/seek faults that can only
// fire inside join-phase workers (the partition passes never read spill
// files): the injected error must surface from the drain, in partition
// order, with every descriptor released and every worker reaped.
func TestSpillFaultParallelJoinWorkers(t *testing.T) {
	for _, op := range []vfs.Op{vfs.OpRead, vfs.OpSeek} {
		t.Run(op.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			fs := vfs.NewFaultFS(nil).FailAt(op, 1)
			j := joinUnderTest(InnerJoin, 512, 4, 17)
			j.SetSpillFS(fs)
			_, err := RunCol(j)
			expectInjectedIO(t, fs, err)
			if fs.Count(op) == 0 {
				t.Fatalf("join never issued a %s; fault not exercised", op)
			}
			expectNoExtraGoroutines(t, before)
		})
	}
}

package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"qpi"
)

// Phase classes of the exec layer, read from the phase spans that
// qpi.WithTrace emits (HashJoin build/probe partition passes and
// join[p] partition joins; HashAgg input and emit).
const (
	phasePartition = "partition"
	phaseJoin      = "join"
	phaseAggregate = "aggregate"
	phaseEmit      = "emit"
)

func phaseClass(phase string) string {
	switch {
	case phase == "build" || phase == "probe":
		return phasePartition
	case strings.HasPrefix(phase, "join") || phase == "inner-build" || phase == "merge":
		return phaseJoin
	case phase == "emit":
		return phaseEmit
	}
	return phaseAggregate // "input", "aggregate"
}

type span struct {
	start, end time.Duration
	seq        int64
	class      string
}

// spanSelfTimes splits the wall time the spans of one traced run cover
// among their phase classes. Each instant goes to the innermost open
// span — the one begun last — so nested spans yield self times and
// spans that overlap on parallel workers are not counted twice: the
// classes sum to the covered wall time, never more.
func spanSelfTimes(events []qpi.TraceEvent) map[string]time.Duration {
	open := map[string][]qpi.TraceEvent{}
	var spans []span
	for _, e := range events {
		key := e.Op + "\x00" + e.Phase
		switch e.Kind {
		case qpi.TraceSpanBegin:
			open[key] = append(open[key], e)
		case qpi.TraceSpanEnd:
			st := open[key]
			if len(st) == 0 {
				continue
			}
			b := st[len(st)-1]
			open[key] = st[:len(st)-1]
			spans = append(spans, span{start: b.Elapsed, end: e.Elapsed, seq: b.Seq, class: phaseClass(e.Phase)})
		}
	}
	var cuts []time.Duration
	for _, s := range spans {
		cuts = append(cuts, s.start, s.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		best := -1
		for j, s := range spans {
			if s.start <= lo && s.end >= hi && (best < 0 || s.seq > spans[best].seq) {
				best = j
			}
		}
		if best >= 0 {
			out[spans[best].class] += hi - lo
		}
	}
	return out
}

// memDelta measures the Go runtime's allocation and GC pause totals
// across a stretch of work.
type memDelta struct{ alloc, pauseNs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.PauseTotalNs}
}

func (m memDelta) since(start memDelta) memDelta {
	return memDelta{m.alloc - start.alloc, m.pauseNs - start.pauseNs}
}

// ledger is one workload's split of request wall time (ms per request)
// over the layers, in the order they were added. other is the wall time
// no layer accounts for, so the rows plus other sum to wall exactly.
type ledger struct {
	wall  float64
	names []string
	ms    map[string]float64
}

func newLedger(wall float64) *ledger { return &ledger{wall: wall, ms: map[string]float64{}} }

func (l *ledger) add(name string, ms float64) {
	if _, ok := l.ms[name]; !ok {
		l.names = append(l.names, name)
	}
	l.ms[name] += ms
}

func (l *ledger) other() float64 {
	o := l.wall
	for _, n := range l.names {
		o -= l.ms[n]
	}
	return o
}

// print writes the ledger rows and records ledger.other_share.
func (l *ledger) print(r *report, n int) {
	note("ledger (ms per request; rows + other = wall)")
	for _, name := range l.names {
		note("  %-26s %10.3f ms %6.1f%%", name, l.ms[name], 100*l.ms[name]/l.wall)
	}
	note("  %-26s %10.3f ms %6.1f%%", "other", l.other(), 100*l.other()/l.wall)
	note("  %-26s %10.3f ms", "wall", l.wall)
	r.add("ledger.other_share", l.other()/l.wall, "fraction", n)
}

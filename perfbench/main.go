// Command perfbench is the repository's benchmark. It runs SQL
// workloads through the public API a user calls — Engine.Prepare,
// Prepared.NewQuery and Query.Run, or the query service behind its HTTP
// handler — with the online estimators on (the default), checks every
// answer, and prints each end-to-end metric with its unit and sample
// count. With --trace 1 it instead splits each workload's wall time into
// a per-layer ledger, measured only from outside the program: timed
// calls into each layer's public functions, A/B passes that switch one
// option, and the phase spans qpi.WithTrace already emits.
//
//	bash perfbench/run.sh --workload olap-batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer makes the
// command exit with status 1, a refused environment with status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// endToEnd and perLayer list the metric names BENCHMARK.json declares;
// the JSON result carries exactly one of the two sets.
var (
	endToEnd = []string{"setup_s", "throughput_qps", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}
	perLayer = []string{
		"sql.parse_us", "plan.prepare_us", "qpi.compile_us", "qpi.materialise_ms",
		"exec.scan_ms", "exec.partition_ms", "exec.join_ms", "exec.aggregate_ms", "exec.emit_ms",
		"exec.getnext", "exec.batches",
		"core.overhead_ratio", "core.recomputes", "core.histogram_probes",
		"progress.ticks", "progress.report_us", "progress.mae",
		"spill.bytes", "spill.files", "service.plan_cache_hit_rate",
		"go.alloc_mb_per_query", "go.gc_pause_ms",
		"obs.trace_overhead_ratio", "ledger.other_share",
	}
)

// batchWorkers is the partition worker count of olap-batch.
const batchWorkers = 2

// progressEvery is the library's default publication interval (tuples
// moved anywhere in the plan), which WithProgress callers pass.
const progressEvery = 4096

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spillDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and answer checks. Every metric is
// printed as it is recorded, by name with its unit and sample count.
type report struct {
	metrics map[string]metric

	mu        sync.Mutex // guards attempted and failed: checks run on client goroutines
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-30s %16.6f %-9s n=%d\n", name, v, unit, n)
}

// note prints a line that is not a metric (environment, ledger rows).
func note(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }

// check records one answer check; a failed check is printed.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		fmt.Printf("  WRONG ANSWER: "+format+"\n", args...)
	}
	return ok
}

// refuse reports a request that failed or was refused.
func (r *report) refuse(format string, args ...any) {
	r.check(false, format, args...)
}

type workload struct {
	why string
	// workers is the partition worker count the workload compiles
	// with; a GOMAXPROCS below it is refused.
	workers int
	run     func(o options, r *report) error
}

var workloads = map[string]workload{
	"olap-batch": {"closed-loop SQL mix on the batch tier, WithBatchExecution(2)", batchWorkers,
		func(o options, r *report) error { return runOLAP(o, r, true) }},
	"olap-tuple": {"closed-loop SQL mix on the default tuple getnext() tier", 1,
		func(o options, r *report) error { return runOLAP(o, r, false) }},
	"serve-mix": {"query service behind its HTTP handler, closed then open loop", 1, runServe},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "olap-batch, olap-tuple or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "drives data generation, query literals and mix order")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of end-to-end metrics")
	flag.StringVar(&o.spillDir, "spill-dir", "", "directory for spill files (required)")
	flag.Parse()
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || o.spillDir == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload olap-batch|olap-tuple|serve-mix --seed N --seconds S --trace 0|1 --spill-dir DIR")
		os.Exit(2)
	}
	if p := runtime.GOMAXPROCS(0); p < w.workers {
		fmt.Fprintf(os.Stderr, "perfbench: refusing %s: GOMAXPROCS=%d is below its %d workers\n", o.workload, p, w.workers)
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d held_out_seed=%d\n",
		o.workload, o.seed, o.seconds, trace, heldOutSeed)
	note("env nproc=%d gomaxprocs=%d go=%s batch_workers=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.workers)
	note("why: %s", w.why)

	r := newReport()
	start := time.Now()
	if err := w.run(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	r.add("peak_rss_mb", peakRSSMB(), "MB", 1)
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	note("error_rate %.6f fraction (%d failed of %d attempted)", errRate, r.failed, r.attempted)
	note("run wall %.1fs", time.Since(start).Seconds())

	names := endToEnd
	if o.trace {
		names = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			os.Exit(1)
		}
		out.Metrics[n] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct || out.Attempted == 0 {
		os.Exit(1)
	}
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// Command qpi-bench regenerates the paper's evaluation tables and
// figures (Figures 3-6 and 8, Tables 1-4 of Mishra & Koudas, ICDE 2007).
//
// Usage:
//
//	qpi-bench                          # run everything at default scale
//	qpi-bench -experiment fig4         # one experiment
//	qpi-bench -paper                   # the paper's original scale
//	qpi-bench -rows 150000 -sf 1       # custom scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/disk"
	"qpi/internal/exec"
	"qpi/internal/experiments"
	"qpi/internal/expr"
	"qpi/internal/plan"
	"qpi/internal/storage"
	"qpi/internal/tpch"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"experiment id: all, "+strings.Join(experiments.Names(), ", "))
		paper    = flag.Bool("paper", false, "use the paper's original scale (slow, needs RAM)")
		rows     = flag.Int("rows", 0, "override synthetic table row count")
		sf       = flag.Float64("sf", 0, "override TPC-H scale factor")
		sample   = flag.Float64("sample", 0, "override block-sample fraction")
		seed     = flag.Int64("seed", 0, "override random seed")
		jsonOut  = flag.Bool("json", false, "benchmark join execution modes and write BENCH_join.json instead of running experiments")
		jsonFile = flag.String("json-file", "BENCH_join.json", "output path for -json (baseline path for -guard)")
		guard    = flag.Bool("guard", false, "re-measure the join modes and fail on regression against the recorded BENCH_join.json")
		tol      = flag.Float64("tolerance", 0.15, "allowed fractional regression in -guard mode (ns/op and allocs/op)")
		maxprocs = flag.Int("gomaxprocs", 0, "GOMAXPROCS for the benchmark (0 = runtime default, i.e. NumCPU)")
		sweep    = flag.String("batchsize", "256,1024,4096", "comma-separated batch sizes swept in -json mode (recorded under batch_sweep; empty disables)")
		modes    = flag.String("modes", "", "comma-separated mode filter for -json (e.g. tuple,columnar; empty = all)")
		matrix   = flag.Bool("matrix", false, "with -json: also measure the SF-scaled worker matrix (SF 0.1/1, cached under testdata/benchcache/); with -guard: validate the recorded matrix cells too")
	)
	flag.Parse()
	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}

	if *guard {
		if err := guardJoinBench(*jsonFile, *tol, *matrix); err != nil {
			fmt.Fprintf(os.Stderr, "qpi-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if err := writeJoinBench(*jsonFile, *sweep, *modes, *matrix); err != nil {
			fmt.Fprintf(os.Stderr, "qpi-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	if *sf > 0 {
		cfg.SF = *sf
	}
	if *sample > 0 {
		cfg.SampleFraction = *sample
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	names := experiments.Names()
	if *experiment != "all" {
		names = strings.Split(*experiment, ",")
	}
	fmt.Printf("qpi-bench: rows=%d domains=%d/%d sf=%g sample=%g%% seed=%d\n\n",
		cfg.Rows, cfg.DomainSmall, cfg.DomainLarge, cfg.SF, 100*cfg.SampleFraction, cfg.Seed)
	for _, name := range names {
		start := time.Now()
		tables, err := experiments.Run(strings.TrimSpace(name), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpi-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// seedBaseline is the recorded tuple-at-a-time BenchmarkJoinBaseline result
// of the pre-batching engine on the reference machine (Intel Xeon 2.10GHz,
// 1 CPU): the number the batch-execution speedups are measured against.
var seedBaseline = modeResult{
	Mode:       "seed-tuple (recorded reference)",
	NsPerOp:    109566440,
	BytesPerOp: 28398736,
	AllocsOp:   75518,
}

// modeResult is one execution mode's measurement on the orders ⋈ lineitem
// workload.
type modeResult struct {
	Mode         string  `json:"mode"`
	Workers      int     `json:"workers,omitempty"`
	NsPerOp      int64   `json:"ns_per_op"`
	TuplesPerSec float64 `json:"tuples_per_sec,omitempty"`
	BytesPerOp   uint64  `json:"bytes_per_op,omitempty"`
	AllocsOp     uint64  `json:"allocs_per_op"`
	SpeedupSeed  float64 `json:"speedup_vs_seed,omitempty"`
	// Per-phase split: the grace join is two partition passes (build +
	// probe scatter) followed by the join phase. The join phase is the part
	// the partition-parallel workers accelerate, so it is reported — with
	// its own throughput over probe tuples — separately from the
	// scatter-bound partition phase.
	PartitionNs      int64   `json:"partition_ns,omitempty"`
	JoinNs           int64   `json:"join_ns,omitempty"`
	JoinTuplesPerSec float64 `json:"join_tuples_per_sec,omitempty"`
	// Observability counters (qpi.Metrics roll-up of the measured run):
	// absolute work moved per op, so throughput regressions from the
	// tracing/metrics instrumentation are attributable across PRs.
	TuplesMoved int64 `json:"tuples_moved,omitempty"`
	Batches     int64 `json:"batches,omitempty"`
	SpillFiles  int64 `json:"spill_files,omitempty"`
	SpillBytes  int64 `json:"spill_bytes,omitempty"`
}

// sweepResult is one (batch size, mode) cell of the batch-size sweep:
// the evidence behind data.DefaultBatchSize.
type sweepResult struct {
	BatchSize        int     `json:"batch_size"`
	Mode             string  `json:"mode"`
	NsPerOp          int64   `json:"ns_per_op"`
	JoinTuplesPerSec float64 `json:"join_tuples_per_sec,omitempty"`
	AllocsOp         uint64  `json:"allocs_per_op"`
}

// filterResult is one cell of the string-filter microbench: the same
// LIKE-prefix AND <= predicate evaluated per-tuple (regexp + Value
// construction per row) versus through the vectorized sel-in/sel-out
// string kernels. TPC-H SF 0.01 carries no string columns, so the
// kernels are measured over a synthetic customer-key table.
type filterResult struct {
	Mode       string  `json:"mode"`
	Rows       int     `json:"rows"`
	Selected   int64   `json:"selected"`
	NsPerOp    int64   `json:"ns_per_op"`
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
	AllocsOp   uint64  `json:"allocs_per_op"`
}

// matrixResult is one (scale factor, worker count) cell of the SF-scaled
// matrix: the scaling story of the morsel-driven scans, measured on
// workloads big enough that per-claim overheads amortize.
type matrixResult struct {
	SF               float64 `json:"sf"`
	Mode             string  `json:"mode"`
	Workers          int     `json:"workers"`
	NsPerOp          int64   `json:"ns_per_op"`
	TuplesPerSec     float64 `json:"tuples_per_sec,omitempty"`
	JoinTuplesPerSec float64 `json:"join_tuples_per_sec,omitempty"`
	AllocsOp         uint64  `json:"allocs_per_op"`
	// SpeedupW1 is this cell's wall-time speedup over the 1-worker cell
	// at the same scale factor.
	SpeedupW1 float64 `json:"speedup_vs_w1,omitempty"`
}

// joinBenchReport is the BENCH_join.json document. The guard compares
// Modes (and SFMatrix when asked); BatchSweep is informational (it varies
// data.SetBatchSize, which the default-configuration guard runs never
// do).
type joinBenchReport struct {
	Benchmark    string         `json:"benchmark"`
	CPU          string         `json:"cpu"`
	NumCPU       int            `json:"num_cpu"`
	MaxProcs     int            `json:"gomaxprocs"`
	Runs         int            `json:"runs_per_mode"`
	SeedBaseline modeResult     `json:"seed_baseline"`
	Modes        []modeResult   `json:"modes"`
	BatchSweep   []sweepResult  `json:"batch_sweep,omitempty"`
	StringFilter []filterResult `json:"string_filter,omitempty"`
	SFMatrix     []matrixResult `json:"sf_matrix,omitempty"`
}

// benchMode identifies one execution mode of the measured sweep.
type benchMode struct {
	name string
	// workers is the HashJoin.SetParallelism k: 0 is the tuple path,
	// ≥ 1 the batched tier (morsel-driven passes from 2 on).
	workers int
	// rowdrain drains a batched join through the row-at-a-time Next
	// (the colpart mode): partitions stay lane-native, output rows are
	// materialized one at a time — measured so its cost is pinned.
	rowdrain bool
	// estimators attaches the online estimators (core.Attach) before the
	// run, as every user query has them: the -est modes time the batched
	// tier's sharded estimator hooks against their estimator-off cells.
	// They run only when named in -modes, so a default -json run does not
	// put them under the guard: their best-of-7 spread between runs is
	// wider than its 15% tolerance.
	estimators bool
}

// benchModes is the measured sweep: the tuple path, the batched tier's
// serial vectorized passes with the lane gather (columnar) and with the
// row drain (colpart), and, when named in -modes, the lane tier with
// estimators attached at one and two workers.
func benchModes() []benchMode {
	return []benchMode{
		{name: "tuple"},
		{name: "columnar", workers: 1},
		{name: "colpart", workers: 1, rowdrain: true},
		{name: "columnar-est", workers: 1, estimators: true},
		{name: "colmorsel-w2-est", workers: 2, estimators: true},
	}
}

// writeJoinBench measures the grace hash join's execution modes on the
// BenchmarkJoinBaseline workload (TPC-H SF 0.01 orders ⋈ lineitem) and
// writes the results as JSON. Best-of-N timing, allocation deltas from
// runtime.MemStats.
func writeJoinBench(path, sweep, modes string, matrix bool) error {
	const runs = 7
	report := joinBenchReport{
		Benchmark:    "grace hash join, TPC-H SF=0.01 orders ⋈ lineitem (estimators attached only in the -est modes)",
		CPU:          runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		MaxProcs:     runtime.GOMAXPROCS(0),
		Runs:         runs,
		SeedBaseline: seedBaseline,
	}
	keep := map[string]bool{}
	for _, f := range strings.Split(modes, ",") {
		if f = strings.TrimSpace(f); f != "" {
			keep[f] = true
		}
	}
	for _, m := range benchModes() {
		if len(keep) > 0 && !keep[m.name] || len(keep) == 0 && m.estimators {
			continue
		}
		if err := refuseUnderCored(m.name, m.workers, m.workers > 1); err != nil {
			fmt.Println(err)
			continue
		}
		best, err := bestJoinRun(m, runs)
		if err != nil {
			return err
		}
		report.Modes = append(report.Modes, best)
		fmt.Printf("%-14s %11d ns/op (partition %d + join %d) %11.0f join-tuples/sec %7d allocs/op  %.2fx vs seed\n",
			best.Mode, best.NsPerOp, best.PartitionNs, best.JoinNs,
			best.JoinTuplesPerSec, best.AllocsOp, best.SpeedupSeed)
	}
	var err error
	if report.BatchSweep, err = runBatchSweep(sweep, runs); err != nil {
		return err
	}
	if report.StringFilter, err = runStringFilterBench(runs); err != nil {
		return err
	}
	if matrix {
		if report.SFMatrix, err = runSFMatrix(); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runBatchSweep re-measures the serial columnar mode at each requested
// batch size, restoring the default afterwards. The sweep justifies
// data.DefaultBatchSize empirically.
func runBatchSweep(sweep string, runs int) ([]sweepResult, error) {
	if sweep == "" {
		return nil, nil
	}
	defer data.SetBatchSize(data.DefaultBatchSize)
	var out []sweepResult
	for _, field := range strings.Split(sweep, ",") {
		var size int
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &size); err != nil || size <= 0 {
			return nil, fmt.Errorf("bad -batchsize entry %q", field)
		}
		data.SetBatchSize(size)
		for _, m := range []benchMode{{name: "columnar", workers: 1}} {
			best, err := bestJoinRun(m, runs)
			if err != nil {
				return nil, err
			}
			out = append(out, sweepResult{
				BatchSize:        size,
				Mode:             m.name,
				NsPerOp:          best.NsPerOp,
				JoinTuplesPerSec: best.JoinTuplesPerSec,
				AllocsOp:         best.AllocsOp,
			})
			fmt.Printf("sweep bs=%-5d %-9s %11d ns/op %11.0f join-tuples/sec %7d allocs/op\n",
				size, m.name, best.NsPerOp, best.JoinTuplesPerSec, best.AllocsOp)
		}
	}
	return out, nil
}

// stringFilterRows sizes the synthetic string-filter workload.
const stringFilterRows = 200000

// stringFilterTable builds the microbench input: one string key column
// (values shuffled over the domain so branch prediction cannot learn
// the selection) plus an int id.
func stringFilterTable() *storage.Table {
	s := data.NewSchema(
		data.Column{Table: "s", Name: "name", Kind: data.KindString},
		data.Column{Table: "s", Name: "id", Kind: data.KindInt},
	)
	t := storage.NewTable("s", s)
	for i := 0; i < stringFilterRows; i++ {
		key := (i * 7919) % stringFilterRows
		t.MustAppend(data.Tuple{data.Str(fmt.Sprintf("cust-%06d", key)), data.Int(int64(i))})
	}
	return t
}

// stringFilterPred is the measured predicate: a LIKE-prefix kernel
// narrowing to half the rows AND a <= string compare narrowing that to
// a quarter. The per-tuple path runs the compiled regexp and data.Compare
// per row; the vectorized path runs both as lane kernels.
func stringFilterPred() (expr.Expr, error) {
	like, err := expr.NewLike(expr.Col{Index: 0}, "cust-0%", false)
	if err != nil {
		return nil, err
	}
	return expr.AndOf(like,
		expr.Compare(expr.LE, expr.Col{Index: 0}, expr.Lit(data.Str("cust-049999")))), nil
}

// runStringFilterOnce measures one drain of the filter, per-tuple
// (vec=false) or through the columnar kernels (vec=true).
func runStringFilterOnce(tab *storage.Table, vec bool) (filterResult, error) {
	pred, err := stringFilterPred()
	if err != nil {
		return filterResult{}, err
	}
	f := exec.NewFilter(exec.NewScan(tab, ""), pred)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var n int64
	if vec {
		n, err = exec.RunCol(f)
	} else {
		n, err = exec.Run(f)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return filterResult{}, err
	}
	mode := "string-filter-row"
	if vec {
		mode = "string-filter-vec"
	}
	return filterResult{
		Mode:       mode,
		Rows:       stringFilterRows,
		Selected:   n,
		NsPerOp:    elapsed.Nanoseconds(),
		RowsPerSec: round2(float64(stringFilterRows) / elapsed.Seconds()),
		AllocsOp:   after.Mallocs - before.Mallocs,
	}, nil
}

// bestStringFilterRun keeps the fastest of n runs of one mode.
func bestStringFilterRun(tab *storage.Table, vec bool, n int) (filterResult, error) {
	var best filterResult
	for r := 0; r < n; r++ {
		res, err := runStringFilterOnce(tab, vec)
		if err != nil {
			return filterResult{}, err
		}
		if best.NsPerOp == 0 || res.NsPerOp < best.NsPerOp {
			best = res
		}
	}
	return best, nil
}

// runStringFilterBench measures both string-filter modes best-of-runs
// over one shared table.
func runStringFilterBench(runs int) ([]filterResult, error) {
	tab := stringFilterTable()
	var out []filterResult
	for _, vec := range []bool{false, true} {
		best, err := bestStringFilterRun(tab, vec, runs)
		if err != nil {
			return nil, err
		}
		out = append(out, best)
		fmt.Printf("%-17s %11d ns/op %11.0f rows/sec (%d of %d selected) %7d allocs/op\n",
			best.Mode, best.NsPerOp, best.RowsPerSec, best.Selected, best.Rows, best.AllocsOp)
	}
	return out, nil
}

// guardJoinBench re-measures every mode recorded in the baseline report at
// path and fails when wall time or allocations regressed by more than tol
// (fractional). Modes in the baseline that the current sweep no longer
// produces are skipped with a note, so renaming a mode cannot silently
// disable the guard for the others. With matrix set, the recorded
// sf_matrix cells are re-measured too (the cached tables under
// testdata/benchcache/ make this cheap after the first -json -matrix).
func guardJoinBench(path string, tol float64, matrix bool) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("guard: reading baseline: %w", err)
	}
	var base joinBenchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("guard: parsing baseline: %w", err)
	}
	// Environment check: a baseline recorded on different hardware or a
	// different GOMAXPROCS is not comparable, and silently "passing"
	// against it would make the guard worthless. Fail loudly and say how
	// to reconcile. (The tol tolerance — default 15%, see -tolerance —
	// absorbs run-to-run scheduler noise on *matching* hardware only; it
	// is far too tight to paper over a hardware or GOMAXPROCS change,
	// which shifts wall time by integer factors.)
	if base.CPU != runtime.GOARCH ||
		(base.NumCPU != 0 && base.NumCPU != runtime.NumCPU()) ||
		base.MaxProcs != runtime.GOMAXPROCS(0) {
		return fmt.Errorf("guard: environment mismatch: baseline %s recorded with cpu=%s num_cpu=%d gomaxprocs=%d, "+
			"current cpu=%s num_cpu=%d gomaxprocs=%d; rerun with -gomaxprocs %d on matching hardware "+
			"or regenerate the baseline with -json",
			path, base.CPU, base.NumCPU, base.MaxProcs,
			runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), base.MaxProcs)
	}
	current := map[string]benchMode{}
	for _, m := range benchModes() {
		current[m.name] = m
	}
	const runs = 7
	var failures []string
	checked := 0
	check := func(label string, gotNs, baseNs int64, gotAllocs, baseAllocs uint64) {
		checked++
		nsRatio := float64(gotNs) / float64(baseNs)
		allocRatio := float64(gotAllocs) / float64(baseAllocs)
		status := "ok"
		if nsRatio > 1+tol {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %d ns/op vs baseline %d (%.0f%% over, tolerance %.0f%%)",
				label, gotNs, baseNs, 100*(nsRatio-1), 100*tol))
		}
		if allocRatio > 1+tol {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (%.0f%% over, tolerance %.0f%%)",
				label, gotAllocs, baseAllocs, 100*(allocRatio-1), 100*tol))
		}
		fmt.Printf("%-14s %11d ns/op (baseline %11d, %+5.1f%%) %7d allocs/op (baseline %7d, %+5.1f%%)  %s\n",
			label, gotNs, baseNs, 100*(nsRatio-1),
			gotAllocs, baseAllocs, 100*(allocRatio-1), status)
	}
	for _, b := range base.Modes {
		m, ok := current[b.Mode]
		if !ok {
			fmt.Printf("%-14s skipped (not in current sweep)\n", b.Mode)
			continue
		}
		if err := refuseUnderCored(m.name, m.workers, m.workers > 1); err != nil {
			fmt.Println(err)
			continue
		}
		got, err := bestJoinRun(m, runs)
		if err != nil {
			return err
		}
		check(b.Mode, got.NsPerOp, b.NsPerOp, got.AllocsOp, b.AllocsOp)
	}
	if len(base.StringFilter) > 0 {
		tab := stringFilterTable()
		for _, b := range base.StringFilter {
			got, err := bestStringFilterRun(tab, strings.HasSuffix(b.Mode, "-vec"), runs)
			if err != nil {
				return err
			}
			check(b.Mode, got.NsPerOp, b.NsPerOp, got.AllocsOp, b.AllocsOp)
		}
	}
	if matrix {
		for _, b := range base.SFMatrix {
			label := fmt.Sprintf("sf%g/%s", b.SF, b.Mode)
			if err := refuseUnderCored(label, b.Workers, b.Workers > 1); err != nil {
				fmt.Println(err)
				continue
			}
			got, err := bestMatrixRun(b.SF, b.Workers, 3)
			if err != nil {
				return err
			}
			check(label, got.NsPerOp, b.NsPerOp, got.AllocsOp, b.AllocsOp)
		}
	}
	if checked == 0 {
		return fmt.Errorf("guard: no baseline mode matches the current sweep; regenerate %s with -json", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("guard: %d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// refuseUnderCored returns a loud refusal when a parallel (morsel) mode
// would be "validated" with fewer scheduler cores than workers: at
// GOMAXPROCS < workers the workers time-slice one core, so the measured
// figure says nothing about the mode's parallel throughput — comparing
// it against a baseline (or worse, recording it as a parallel speedup)
// is a benchmarking artifact, not a measurement. The mode is skipped,
// never silently passed.
func refuseUnderCored(label string, workers int, parallel bool) error {
	if !parallel || workers <= runtime.GOMAXPROCS(0) {
		return nil
	}
	return fmt.Errorf("%-14s REFUSED: %d workers > GOMAXPROCS %d — time-sliced 'parallel' timings are artifacts; "+
		"validate on a machine with >= %d cores (or -gomaxprocs %d)",
		label, workers, runtime.GOMAXPROCS(0), workers, workers)
}

// bestJoinRun runs one mode n times and keeps the fastest run (allocation
// counts are stable across runs; timing is best-of to shed scheduler
// noise).
func bestJoinRun(m benchMode, n int) (modeResult, error) {
	var best modeResult
	for r := 0; r < n; r++ {
		res, err := runJoinOnce(m)
		if err != nil {
			return modeResult{}, err
		}
		if best.NsPerOp == 0 || res.NsPerOp < best.NsPerOp {
			best = res
		}
	}
	best.SpeedupSeed = round2(float64(seedBaseline.NsPerOp) / float64(best.NsPerOp))
	return best, nil
}

// runJoinOnce builds and runs the benchmark join in one mode on freshly
// generated SF 0.01 tables (the historical BenchmarkJoinBaseline
// workload, regenerated per run so allocator state stays comparable with
// the recorded seed baseline).
func runJoinOnce(m benchMode) (modeResult, error) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.01, Seed: 1, Tables: []string{"orders", "lineitem"}})
	if err != nil {
		return modeResult{}, err
	}
	return runJoinOn(cat.MustLookup("orders").Table, cat.MustLookup("lineitem").Table, cat, m)
}

// runJoinOn runs the orders ⋈ lineitem benchmark join in one mode over
// the given tables, splitting wall time at the partition/join phase
// boundary (OnProbeEnd fires when the probe scatter pass is done, before
// the first join-phase output). cat may be nil (matrix cells run without
// plan-time cardinality annotation; it does not affect execution).
func runJoinOn(orders, lineitem *storage.Table, cat *catalog.Catalog, m benchMode) (modeResult, error) {
	bs := exec.NewScan(orders, "")
	ps := exec.NewScan(lineitem, "")
	j := exec.NewHashJoin(bs, ps,
		bs.Schema().MustResolve("orders", "orderkey"),
		ps.Schema().MustResolve("lineitem", "orderkey"))
	if cat != nil {
		plan.EstimateCardinalities(j, cat)
	}
	workers := m.workers
	j.SetParallelism(workers)
	var err error
	var partitionDone time.Time
	j.OnProbeEnd = func() { partitionDone = time.Now() }
	if m.estimators {
		core.Attach(j)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var n int64
	if workers > 0 && !m.rowdrain {
		n, err = exec.RunCol(j)
	} else {
		n, err = exec.Run(j)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return modeResult{}, err
	}
	tuples := n + j.BuildRows() + j.ProbeRows()
	res := modeResult{
		Mode:         m.name,
		Workers:      workers,
		NsPerOp:      elapsed.Nanoseconds(),
		TuplesPerSec: round2(float64(tuples) / elapsed.Seconds()),
		BytesPerOp:   after.TotalAlloc - before.TotalAlloc,
		AllocsOp:     after.Mallocs - before.Mallocs,
	}
	if !partitionDone.IsZero() {
		res.PartitionNs = partitionDone.Sub(start).Nanoseconds()
		res.JoinNs = res.NsPerOp - res.PartitionNs
		if res.JoinNs > 0 {
			res.JoinTuplesPerSec = round2(float64(j.ProbeRows()) / (float64(res.JoinNs) / 1e9))
		}
	}
	exec.Walk(j, func(op exec.Operator) {
		st := op.Stats()
		res.TuplesMoved += st.Emitted.Load()
		res.Batches += st.Batches.Load()
		res.SpillFiles += st.SpillFiles.Load()
		res.SpillBytes += st.SpillBytes.Load()
	})
	return res, nil
}

// matrixMode maps a matrix worker count to its execution mode: the
// 1-worker cell is the serial vectorized reference; every wider cell
// runs the morsel-driven scans.
func matrixMode(workers int) benchMode {
	if workers <= 1 {
		return benchMode{name: "columnar-w1", workers: 1}
	}
	return benchMode{name: fmt.Sprintf("colmorsel-w%d", workers), workers: workers}
}

// bestMatrixRun measures one (scale factor, worker count) cell best-of-n
// over the cached tables.
func bestMatrixRun(sf float64, workers, runs int) (matrixResult, error) {
	orders, lineitem, err := benchTables(sf)
	if err != nil {
		return matrixResult{}, err
	}
	m := matrixMode(workers)
	var best modeResult
	for r := 0; r < runs; r++ {
		res, err := runJoinOn(orders, lineitem, nil, m)
		if err != nil {
			return matrixResult{}, err
		}
		if best.NsPerOp == 0 || res.NsPerOp < best.NsPerOp {
			best = res
		}
	}
	return matrixResult{
		SF:               sf,
		Mode:             m.name,
		Workers:          m.workers,
		NsPerOp:          best.NsPerOp,
		TuplesPerSec:     best.TuplesPerSec,
		JoinTuplesPerSec: best.JoinTuplesPerSec,
		AllocsOp:         best.AllocsOp,
	}, nil
}

// runSFMatrix measures the SF-scaled worker matrix: scale factors big
// enough that per-morsel claim overheads amortize, worker sweep
// {1, 2, 4, NumCPU} deduplicated. Speedups are against the 1-worker cell
// at the same scale factor.
func runSFMatrix() ([]matrixResult, error) {
	const runs = 3
	var out []matrixResult
	for _, sf := range []float64{0.1, 1} {
		var w1ns int64
		seen := map[int]bool{}
		for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
			if w < 1 || seen[w] {
				continue
			}
			seen[w] = true
			cell, err := bestMatrixRun(sf, w, runs)
			if err != nil {
				return nil, err
			}
			if w == 1 {
				w1ns = cell.NsPerOp
			} else if w1ns > 0 {
				cell.SpeedupW1 = round2(float64(w1ns) / float64(cell.NsPerOp))
			}
			out = append(out, cell)
			fmt.Printf("matrix sf=%-4g %-10s %11d ns/op %11.0f join-tuples/sec %8d allocs/op  %.2fx vs w1\n",
				sf, cell.Mode, cell.NsPerOp, cell.JoinTuplesPerSec, cell.AllocsOp, cell.SpeedupW1)
		}
	}
	return out, nil
}

// benchTableCache shares loaded matrix tables across cells at the same
// scale factor within one process.
var benchTableCache = map[float64][2]*storage.Table{}

// benchTables returns the orders/lineitem pair at the given scale factor.
// Tables are generated once and serialized under testdata/benchcache/
// (SF 1 generation takes about a minute; reloading the cache takes
// seconds), so repeated -matrix and -guard runs measure identical data.
func benchTables(sf float64) (*storage.Table, *storage.Table, error) {
	if c, ok := benchTableCache[sf]; ok {
		return c[0], c[1], nil
	}
	dir := filepath.Join("testdata", "benchcache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	names := [2]string{"orders", "lineitem"}
	var paths [2]string
	missing := false
	for i, name := range names {
		paths[i] = filepath.Join(dir, fmt.Sprintf("sf%g_%s.qpt", sf, name))
		if _, err := os.Stat(paths[i]); err != nil {
			missing = true
		}
	}
	if missing {
		fmt.Printf("matrix: generating TPC-H SF %g into %s ...\n", sf, dir)
		cat, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1, Tables: names[:]})
		if err != nil {
			return nil, nil, err
		}
		for i, name := range names {
			if err := disk.WriteTable(paths[i], cat.MustLookup(name).Table); err != nil {
				return nil, nil, err
			}
		}
	}
	var tabs [2]*storage.Table
	for i, name := range names {
		tf, err := disk.OpenTable(paths[i])
		if err != nil {
			return nil, nil, err
		}
		t, lerr := tf.Load(name)
		if cerr := tf.Close(); lerr == nil {
			lerr = cerr
		}
		if lerr != nil {
			return nil, nil, lerr
		}
		tabs[i] = t
	}
	benchTableCache[sf] = tabs
	return tabs[0], tabs[1], nil
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }

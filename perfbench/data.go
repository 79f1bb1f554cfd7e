package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"qpi"
)

// Data sizes. TPC-H at SF 0.05 with Zipf-1 foreign keys gives 300k
// lineitem rows; the synthetic r, s, t tables are sized so that the
// three-way same-attribute join (the paper's Fig 5 shape, whose output
// grows with the cube of the row count) runs in a few hundred ms.
const (
	tpchSF     = 0.05
	tpchSkew   = 1.0
	skewRows   = 10000
	skewDomain = 1000
	skewZipf   = 1.0
)

// heldOutSeed is never used while the benchmark or a change is tuned;
// a claimed gain is re-checked on it (see NOTES.md).
const heldOutSeed = 9001

// shape is one SQL query of the olap mix.
type shape struct {
	name string
	sql  string
	// scans are single-table COUNT(*) queries over the shape's base
	// relations with the filters the planner pushes onto them; the
	// traced run times them to split scan time out of the operator
	// spans that pull from those scans.
	scans []string
	// scanIn is the phase class whose spans pull from those scans (hash
	// join partition passes, or the aggregate's input phase); "" when no
	// span covers them.
	scanIn string
}

// preparedShapes returns the five query shapes, with literals drawn from rng.
func preparedShapes(rng *rand.Rand) []shape {
	// Literals vary with the seed at fixed selectivity: half the part
	// sizes, 1000 of the 2556 order dates, one of the five regions.
	region := 1 + rng.Intn(5)
	sizeLo := 1 + rng.Intn(26)
	dateLo := 19920101 + rng.Intn(1556)
	return []shape{
		{
			name: "bin_join",
			sql: `SELECT o.custkey, COUNT(*) AS n, SUM(l.extendedprice) AS revenue
FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey
GROUP BY o.custkey`,
			scans:  []string{"SELECT COUNT(*) FROM orders", "SELECT COUNT(*) FROM lineitem"},
			scanIn: phasePartition,
		},
		{
			name: "chain_join",
			sql: `SELECT c.nationkey, COUNT(*) AS n
FROM customer c JOIN orders o ON c.custkey = o.custkey
JOIN lineitem l ON o.orderkey = l.orderkey
GROUP BY c.nationkey`,
			scans:  []string{"SELECT COUNT(*) FROM customer", "SELECT COUNT(*) FROM orders", "SELECT COUNT(*) FROM lineitem"},
			scanIn: phasePartition,
		},
		{
			name: "star_join",
			sql: fmt.Sprintf(`SELECT n.name, COUNT(*) AS n_lines, SUM(l.extendedprice) AS revenue
FROM part p, lineitem l, orders o, customer c, nation n
WHERE p.partkey = l.partkey AND l.orderkey = o.orderkey
  AND o.custkey = c.custkey AND c.nationkey = n.nationkey
  AND n.regionkey = %d AND p.size BETWEEN %d AND %d
  AND o.orderdate BETWEEN %d AND %d
GROUP BY n.name`, region, sizeLo, sizeLo+24, dateLo, dateLo+999),
			scans: []string{
				fmt.Sprintf("SELECT COUNT(*) FROM part WHERE size BETWEEN %d AND %d", sizeLo, sizeLo+24),
				"SELECT COUNT(*) FROM lineitem",
				fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE orderdate BETWEEN %d AND %d", dateLo, dateLo+999),
				"SELECT COUNT(*) FROM customer",
				fmt.Sprintf("SELECT COUNT(*) FROM nation WHERE regionkey = %d", region),
			},
			scanIn: phasePartition,
		},
		{
			name:   "skew_chain",
			sql:    `SELECT COUNT(*) AS n FROM r, s, t WHERE r.a = s.a AND s.a = t.a`,
			scans:  []string{"SELECT COUNT(*) FROM r", "SELECT COUNT(*) FROM s", "SELECT COUNT(*) FROM t"},
			scanIn: phasePartition,
		},
		{
			name: "groupby_wide",
			sql: `SELECT l.partkey, COUNT(*) AS n, SUM(l.extendedprice) AS revenue
FROM lineitem l GROUP BY l.partkey`,
			scans:  []string{"SELECT COUNT(*) FROM lineitem"},
			scanIn: phaseAggregate,
		},
	}
}

// loadEngine generates every table of the benchmark from seed: TPC-H
// with skewed foreign keys, and the Zipf tables r, s, t. Which values
// are hot in r, s and t is part of the workload's design, not of its
// seed: fixed, distinct permutation seeds misalign them, so the size of
// their join does not swing with the seed.
func loadEngine(seed int64) (*qpi.Engine, error) {
	e := qpi.New()
	if err := e.LoadTPCH(qpi.TPCHConfig{SF: tpchSF, Seed: seed, Skew: tpchSkew}); err != nil {
		return nil, fmt.Errorf("load tpch: %w", err)
	}
	for i, name := range []string{"r", "s", "t"} {
		col := qpi.SkewedColumn{Name: "a", Domain: skewDomain, Zipf: skewZipf, PermSeed: int64(i) + 1}
		if err := e.CreateSkewedTable(name, skewRows, seed*7+int64(i), col); err != nil {
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
	}
	return e, nil
}

// setupTimes runs build three times and returns the last result with
// the three wall times. close releases each earlier result, and the
// garbage it leaves is collected before the next build is timed.
func setupTimes[T any](build func() (T, error), close func(T)) (T, []float64, error) {
	var times []float64
	var last T
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < 2 {
			close(v)
			continue
		}
		last = v
	}
	return last, times, nil
}

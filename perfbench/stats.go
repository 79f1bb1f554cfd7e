package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// checksum is an order-insensitive digest of a result multiset. Exact
// columns (integers, strings) are hashed per row with FNV-64 and the row
// hashes combined by a wrapping sum and a xor. Float columns — sums that
// another execution tier may accumulate in another order — are folded
// into F, a sum of each value weighted by a function of its row's exact
// hash and its column, and compared within a relative tolerance; A is
// the matching sum of magnitudes, which sets the tolerance's scale.
type checksum struct {
	Rows     int64
	Sum, Xor uint64
	F, A     float64
}

// floatTolerance bounds the relative difference of F between two
// evaluations of one result: reordered float additions stay far below
// it, a value moved to another row or changed lands far above it.
const floatTolerance = 1e-9

func (c checksum) equal(o checksum) bool {
	return c.Rows == o.Rows && c.Sum == o.Sum && c.Xor == o.Xor &&
		math.Abs(c.F-o.F) <= floatTolerance*math.Max(math.Max(c.A, o.A), 1)
}

// floatColumns marks the float64 columns of typed library rows.
func floatColumns(rows [][]any) []bool {
	if len(rows) == 0 {
		return nil
	}
	mask := make([]bool, len(rows[0]))
	for i, v := range rows[0] {
		_, mask[i] = v.(float64)
	}
	return mask
}

// addRow folds one row in; float marks the float columns (rows decoded
// from JSON carry every number as a float64, so the mask comes from the
// typed reference).
func (c *checksum) addRow(row []any, float []bool) {
	h := fnv.New64a()
	var b strings.Builder
	for i, v := range row {
		if i < len(float) && float[i] {
			continue
		}
		b.WriteString(canonical(v))
		b.WriteByte('|')
	}
	_, _ = h.Write([]byte(b.String()))
	x := h.Sum64()
	c.Rows++
	c.Sum += x
	c.Xor ^= x
	for i, v := range row {
		if i < len(float) && float[i] {
			f, _ := v.(float64)
			w := 1 + float64(x%4093)/4093 + float64(i)
			c.F += w * f
			c.A += math.Abs(w * f)
		}
	}
}

func (c checksum) String() string {
	return fmt.Sprintf("rows=%d sum=%016x xor=%016x f=%.6g", c.Rows, c.Sum, c.Xor, c.F)
}

func checksumOf(rows [][]any, float []bool) checksum {
	var c checksum
	for _, r := range rows {
		c.addRow(r, float)
	}
	return c
}

// canonical renders one result value so that the library's typed rows
// and the same rows decoded from JSON (where every number is a float64)
// hash alike.
func canonical(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return "s:" + x
	case int64:
		return canonicalNumber(float64(x))
	case float64:
		return canonicalNumber(x)
	}
	return fmt.Sprintf("?%v", v)
}

func canonicalNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return "n:" + strconv.FormatInt(int64(f), 10)
	}
	return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
}

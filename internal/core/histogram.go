// Package core implements the paper's online cardinality estimation
// framework ("once"): exact frequency histograms built during operator
// preprocessing phases, incrementally-updated join estimators with
// confidence intervals (§4.1), push-down estimation for pipelines of hash
// joins (Algorithm 1, §4.1.4), the dne and byte baseline estimators, and
// the glue that attaches all of them to an executor plan.
package core

import (
	"sort"

	"qpi/internal/data"
	"qpi/internal/hashtab"
)

// FreqHistogram is an exact value-frequency histogram: for every distinct
// value v it maintains N_v, the number of times v was observed (§4.1.1's
// N^R_i counts). It also supports weighted increments, which the derived
// histograms of Case 2 pipelines need (§4.1.4.2), and tracks the memory
// accounting reported in the paper's Table 2.
//
// Integer keys — the overwhelmingly common join-key type — take a fast
// path through an open-addressing hashtab.I64Map, keeping the per-tuple
// overhead of the estimation framework small (the paper's "lightweight"
// requirement); other kinds share a map keyed by data.Value.
type FreqHistogram struct {
	ints  hashtab.I64Map[int64]
	other map[data.Value]int64
	total int64 // sum of all counts (weighted observations)

	// prof, when enabled by TrackProfile, is the frequency-of-frequencies
	// profile f_j maintained incrementally on every update: a count
	// transition c → c+w costs two profile touches instead of a full
	// histogram scan per estimator refresh.
	prof map[int64]int64
}

// NewFreqHistogram creates an empty histogram.
func NewFreqHistogram() *FreqHistogram {
	return &FreqHistogram{}
}

// TrackProfile turns on incremental maintenance of the
// frequency-of-frequencies profile, back-filling from any counts already
// present. Profile then returns the live profile without rescanning the
// histogram — the refresh path of the push-down aggregation estimators,
// which would otherwise rebuild the profile on every publish boundary.
func (h *FreqHistogram) TrackProfile() *FreqHistogram {
	if h.prof == nil {
		h.prof = h.FrequencyOfFrequencies()
	}
	return h
}

// profShift moves one value's profile mass from count old to count new.
func (h *FreqHistogram) profShift(old, new int64) {
	if h.prof == nil {
		return
	}
	if old != 0 {
		if h.prof[old]--; h.prof[old] == 0 {
			delete(h.prof, old)
		}
	}
	if new != 0 {
		h.prof[new]++
	}
}

// Add counts one observation of v. NULLs are ignored (they never join or
// group with anything under our key semantics).
func (h *FreqHistogram) Add(v data.Value) {
	if v.Kind == data.KindInt {
		p := h.ints.Ref(v.I)
		*p++
		h.total++
		if h.prof != nil {
			h.profShift(*p-1, *p)
		}
		return
	}
	h.AddN(v, 1)
}

// AddN counts w observations of v.
func (h *FreqHistogram) AddN(v data.Value, w int64) {
	if v.IsNull() || w == 0 {
		return
	}
	var old, new int64
	if v.Kind == data.KindInt {
		p := h.ints.Ref(v.I)
		old = *p
		*p += w
		new = *p
	} else {
		if h.other == nil {
			h.other = make(map[data.Value]int64)
		}
		old = h.other[v]
		h.other[v] = old + w
		new = old + w
	}
	h.total += w
	h.profShift(old, new)
}

// AddIntN counts w observations of an integer key without boxing it in a
// Value: the weighted companion of ObserveColumn, used by the lane-native
// derived-histogram build hooks.
func (h *FreqHistogram) AddIntN(v, w int64) {
	if w == 0 {
		return
	}
	p := h.ints.Ref(v)
	old := *p
	*p += w
	h.total += w
	h.profShift(old, *p)
}

// Merge adds every count of src into h, leaving h exactly as the loop
// src.Each(h.AddN) would: the sentinel key, non-integer keys, zero
// counts (skipped) and the tracked profile included. It is the batched
// tier's shard merge. The integer table is reserved for both key sets
// first, because Each walks src in slot order and both tables share one
// hash: into a smaller, doubling destination that stream piles onto
// already-filled probe runs (see hashtab.I64Map.Reserve), which made
// the unreserved merge of 300k keys take seconds instead of
// milliseconds.
func (h *FreqHistogram) Merge(src *FreqHistogram) {
	h.ints.Reserve(h.ints.Len() + src.ints.Len())
	src.ints.Each(func(v, n int64) bool {
		h.AddIntN(v, n)
		return true
	})
	for v, n := range src.other {
		h.AddN(v, n)
	}
}

// ObserveColumn counts one observation of every live value in a flat
// int64 key column — the span-at-a-time form of Add used by the columnar
// partition passes. sel selects the live rows (nil = all n values) and
// nulls flags NULL rows, which are skipped exactly as Add skips NULL
// values; the resulting histogram state is identical to calling Add row
// by row over the same span.
func (h *FreqHistogram) ObserveColumn(vals []int64, sel []int32, nulls data.Bitmap) {
	add := func(i int) {
		if nulls.Get(i) {
			return
		}
		p := h.ints.Ref(vals[i])
		*p++
		h.total++
		if h.prof != nil {
			h.profShift(*p-1, *p)
		}
	}
	if sel == nil {
		for i := range vals {
			add(i)
		}
	} else {
		for _, i := range sel {
			add(int(i))
		}
	}
}

// CountInt returns N_v for an integer key without boxing it in a Value —
// the probe-side span companion of ObserveColumn.
func (h *FreqHistogram) CountInt(v int64) int64 {
	n, _ := h.ints.Get(v)
	return n
}

// Count returns N_v.
func (h *FreqHistogram) Count(v data.Value) int64 {
	if v.Kind == data.KindInt {
		n, _ := h.ints.Get(v.I)
		return n
	}
	if h.other == nil {
		return 0
	}
	return h.other[v]
}

// Distinct returns the number of distinct values observed.
func (h *FreqHistogram) Distinct() int64 { return int64(h.ints.Len() + len(h.other)) }

// Total returns the sum of all counts.
func (h *FreqHistogram) Total() int64 { return h.total }

// Each calls f for every (value, count) pair, in unspecified order. f
// returning false stops the iteration.
func (h *FreqHistogram) Each(f func(v data.Value, n int64) bool) {
	stopped := false
	h.ints.Each(func(i int64, n int64) bool {
		if !f(data.Int(i), n) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for v, n := range h.other {
		if !f(v, n) {
			return
		}
	}
}

// FrequencyOfFrequencies returns the f_j profile used by the distinct-value
// estimators: result[j] = number of values observed exactly j times. It
// always rescans; estimator refresh paths should use Profile instead.
func (h *FreqHistogram) FrequencyOfFrequencies() map[int64]int64 {
	f := make(map[int64]int64)
	h.ints.Each(func(_ int64, n int64) bool {
		if n != 0 {
			f[n]++
		}
		return true
	})
	for _, n := range h.other {
		if n != 0 {
			f[n]++
		}
	}
	return f
}

// Profile returns the frequency-of-frequencies profile: the incrementally
// maintained one when TrackProfile is on (shared, read-only — O(1) per
// call), a fresh scan otherwise.
func (h *FreqHistogram) Profile() map[int64]int64 {
	if h.prof != nil {
		return h.prof
	}
	return h.FrequencyOfFrequencies()
}

// TopK returns the k most frequent values (ties broken by value order).
func (h *FreqHistogram) TopK(k int) []struct {
	Value data.Value
	Count int64
} {
	type vc struct {
		Value data.Value
		Count int64
	}
	all := make([]vc, 0, h.Distinct())
	h.Each(func(v data.Value, n int64) bool {
		all = append(all, vc{v, n})
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return data.Compare(all[i].Value, all[j].Value) < 0
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]struct {
		Value data.Value
		Count int64
	}, len(all))
	for i, e := range all {
		out[i] = struct {
			Value data.Value
			Count int64
		}{e.Value, e.Count}
	}
	return out
}

// Memory accounting (paper §5.2.1 / Table 2). The paper stores 8 bytes of
// payload per entry (4-byte value + 4-byte count) inside PostgreSQL's
// generic hash table, observing ~20 bytes of overhead per entry from the
// hash table's pointers. Our integer entries live in an open-addressing
// table of int64 key/count pairs.

// entryPayloadBytes is the payload the paper counts per entry: the value
// and its count.
const entryPayloadBytes = 8

// goMapEntryOverhead approximates the per-entry cost of a Go
// map[data.Value]int64 entry (the non-integer fallback): 40-byte key plus
// bucket headers, overflow pointers and spare bucket capacity.
const goMapEntryOverhead = 16 + 12

// MemoryUsed returns the bytes of live histogram payload, in the paper's
// accounting: 8 bytes per entry plus the bytes of any string keys.
func (h *FreqHistogram) MemoryUsed() int64 {
	used := h.Distinct() * entryPayloadBytes
	for v := range h.other {
		if v.Kind == data.KindString {
			used += int64(len(v.S))
		}
	}
	return used
}

// MemoryAllocated estimates the bytes actually allocated by the backing
// tables, the analogue of the paper's "Mem. Alloc." column: the
// open-addressing table allocates 16 bytes per slot (int64 key + int64
// count) at ≤ 7/8 load.
func (h *FreqHistogram) MemoryAllocated() int64 {
	alloc := int64(h.ints.Slots()) * 16
	for v := range h.other {
		alloc += entryPayloadBytes + goMapEntryOverhead + 32 // data.Value key
		if v.Kind == data.KindString {
			alloc += int64(len(v.S))
		}
	}
	return alloc
}

package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the nearest-rank p-quantile (0 < p <= 1) of samples
// together with the sample count behind it: the smallest sample with at
// least ⌈p·n⌉ samples at or below it. No samples give (0, 0).
func nearestRank(samples []float64, p float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// The epsilon keeps products like 0.9·10, which float64 may round a
	// hair above 9, on their exact rank.
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	i = max(0, min(i, n-1))
	return s[i], n
}

// geomean returns the geometric mean of positive values; no values, or
// any value at or below 0, give 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// interval is one span's [start, end) on a trace's clock.
type interval struct{ start, end time.Duration }

// unionLength returns the time covered by at least one interval: the wall
// time a layer held, however many of its spans ran side by side.
func unionLength(ivs []interval) time.Duration {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range s {
		if iv.end <= iv.start {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// busyLength returns the summed duration of the intervals: the time a
// layer's spans were running, counting overlapping spans once each.
func busyLength(ivs []interval) time.Duration {
	var total time.Duration
	for _, iv := range ivs {
		if iv.end > iv.start {
			total += iv.end - iv.start
		}
	}
	return total
}

// ratio divides a by b, giving 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Package stats provides the small statistical toolbox used by the
// experiment harness: medians over the 10 random instances per parameter
// set (the paper's aggregation), means and quantiles.
package stats

import (
	"math"
	"sort"
)

// Number is the constraint for the summary helpers.
type Number interface {
	~int | ~int32 | ~int64 | ~float64
}

// Median returns the median of xs (average of the two middle elements for
// even length, matching common practice and Matlab's median). It panics on
// empty input. The input is not modified.
func Median[T Number](xs []T) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

// MedianInt returns the lower median as the same integer-ish type, for
// columns that must stay integral (e.g. |N| in Table I).
func MedianInt[T Number](xs []T) T {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean[T Number](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics; panics on empty input.
func Quantile[T Number](xs []T, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 1 {
		return float64(s[0])
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return float64(s[lo])
	}
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

// Stddev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two samples.
func Stddev[T Number](xs []T) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := float64(x) - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

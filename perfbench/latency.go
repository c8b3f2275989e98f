package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// latSamples keeps every latency of the simulated window, in
// picoseconds. The window is fixed in virtual time, so the sample count
// is bounded and known up front; quantiles are exact and repeat exactly
// for one seed.
type latSamples struct {
	ps     []int64
	sorted bool
}

func newLatSamples(expected int) *latSamples {
	return &latSamples{ps: make([]int64, 0, expected+expected/4+1024)}
}

func (l *latSamples) add(ps int64) {
	l.ps = append(l.ps, ps)
	l.sorted = false
}

func (l *latSamples) n() uint64 { return uint64(len(l.ps)) }

// quantileUs is the nearest-rank q-quantile in microseconds: the
// smallest sample with at least ceil(q*n) samples at or below it.
func (l *latSamples) quantileUs(q float64) float64 {
	if len(l.ps) == 0 {
		return 0
	}
	if !l.sorted {
		slices.Sort(l.ps)
		l.sorted = true
	}
	rank := int(math.Ceil(q * float64(len(l.ps))))
	rank = min(max(rank, 1), len(l.ps))
	return float64(l.ps[rank-1]) / 1e6
}

// supports reports whether n samples leave at least minBeyond samples
// beyond the p-th percentile.
func supports(p float64, n uint64) bool {
	return float64(n)*(1-p/100) >= minBeyond-1e-9
}

// tailPercentile is the highest percentile of a fixed ladder that n
// samples support, or 0 when even the median is not supported.
func tailPercentile(n uint64) float64 {
	for _, p := range []float64{99.99, 99.9, 99, 90, 50} {
		if supports(p, n) {
			return p
		}
	}
	return 0
}

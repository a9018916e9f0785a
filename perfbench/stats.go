package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 needs at least 1000 samples, so its value is set by ten
// observations rather than by the single worst one.
const minBeyond = 10

// pctl is one percentile computed from recorded samples.
type pctl struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
	// Refused says why the percentile was not reported, if it was not.
	Refused string `json:"refused,omitempty"`
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs and how many samples lie beyond it. It refuses (returns an error)
// when fewer than minBeyond samples lie beyond the rank, so an
// under-sampled tail is reported as missing rather than guessed.
func percentile(xs []float64, p float64) (pctl, error) {
	n := len(xs)
	if n == 0 {
		return pctl{}, fmt.Errorf("p%g: no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(rank, 1)
	beyond := n - rank
	if beyond < minBeyond {
		return pctl{Samples: n, Beyond: beyond},
			fmt.Errorf("p%g: %d samples leave %d beyond the rank, need %d", p, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return pctl{Value: s[rank-1], Samples: n, Beyond: beyond}, nil
}

// samplesFor reports how many samples a p-th percentile needs before
// percentile accepts it.
func samplesFor(p float64) int {
	for n := minBeyond + 1; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median of xs (the mean of the two middle values for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

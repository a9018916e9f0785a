package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileExactNearestRank(t *testing.T) {
	got, err := percentile(seq(1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 990 || got.Samples != 1000 || got.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 beyond", got)
	}
	got, err = percentile(seq(101), 50)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 51 || got.Beyond != 50 {
		t.Fatalf("p50 of 1..101 = %+v, want 51", got)
	}
}

// A percentile whose tail holds fewer than ten samples is refused, not
// guessed: 999 samples leave only 9 beyond the p99 rank.
func TestPercentileRefusesThinTail(t *testing.T) {
	if got, err := percentile(seq(999), 99); err == nil {
		t.Fatalf("p99 of 999 samples accepted: %+v", got)
	}
	if _, err := percentile(seq(15), 50); err == nil {
		t.Fatal("p50 of 15 samples accepted with 7 beyond")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
	if n := samplesFor(99); n != 1000 {
		t.Fatalf("samplesFor(99) = %d, want 1000", n)
	}
	if _, err := percentile(seq(samplesFor(50)), 50); err != nil {
		t.Fatalf("samplesFor(50) samples refused: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

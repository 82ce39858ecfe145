package main

import (
	"math"
	"testing"
)

var (
	lower  = metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	higher = metricDecl{Name: "work_per_s", Better: "higher", Bound: 0.25}
)

func TestSummarize(t *testing.T) {
	base := []float64{10, 12, 11, 13, 10}
	tree := []float64{5, 12, 6, 14, 4}
	s := summarize(base, tree, lower, false)
	if s.baseMedian != 11 || s.treeMedian != 6 || s.baseIQR != 2 || s.treeIQR != 7 {
		t.Fatalf("lower-is-better summary: %+v", s)
	}
	if s.wins != 3 { // a tie and a loss count for neither side
		t.Fatalf("wins = %d, want 3", s.wins)
	}
	if up := summarize(base, tree, higher, false); up.wins != 1 {
		t.Fatalf("higher-is-better wins = %d, want 1", up.wins)
	}
}

func TestVerdict(t *testing.T) {
	ten := func(v ...float64) []float64 { return v }
	steady := ten(100, 101, 99, 100, 102, 98, 100, 101, 99, 100) // median 100, IQR 1.5
	noisy := ten(60, 140, 80, 120, 100, 70, 130, 90, 110, 100)   // median 100, IQR 35
	for _, c := range []struct {
		name       string
		base, tree []float64
		m          metricDecl
		moreFailed bool
		want       string
	}{
		{"gain: 10/10 wins, medians 5 apart against an IQR of 1.5", steady,
			ten(95, 96, 94, 95, 97, 93, 95, 96, 94, 95), lower, false, verdictGain},
		{"gain, higher is better", steady,
			ten(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), higher, false, verdictGain},
		{"no gain when the tree fails a larger share of ops", steady,
			ten(95, 96, 94, 95, 97, 93, 95, 96, 94, 95), lower, true, verdictSame},
		{"gain on exactly 9/10 wins", steady,
			ten(95, 96, 94, 95, 97, 93, 95, 96, 94, 101), lower, false, verdictGain},
		{"no gain from fewer than ten pairs", ten(100, 101, 99, 100, 102),
			ten(95, 96, 94, 95, 97), lower, false, verdictSame},
		{"no gain on 8/10 wins", steady,
			ten(95, 96, 94, 95, 97, 93, 95, 96, 104, 105), lower, false, verdictSame},
		{"no gain when the medians are within the base IQR", steady,
			ten(99, 100, 98, 99, 101, 97, 99, 100, 98, 99), lower, false, verdictSame},
		{"regression: median 30% worse, bound 25%", steady,
			ten(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), lower, false, verdictRegression},
		{"regression, higher is better", steady,
			ten(70, 71, 69, 70, 72, 68, 70, 71, 69, 70), higher, false, verdictRegression},
		{"unresolved: base IQR 35% of its median, bound 25%", noisy,
			ten(61, 141, 81, 121, 101, 71, 131, 91, 111, 101), lower, false, verdictUnresolved},
		{"gain despite noise: every tree run beats every base run by more than the IQR", noisy,
			ten(50, 51, 52, 53, 54, 55, 56, 57, 58, 59), lower, false, verdictGain},
		{"same, not unresolved: every tree run beats every base run, within the IQR",
			ten(96, 97, 98, 99, 100, 100, 150, 160, 170, 180), // median 100, IQR 59.25
			ten(95, 95, 95, 95, 95, 95, 95, 95, 95, 95), lower, false, verdictSame},
		{"same: within the bound on a quiet base", steady,
			ten(101, 102, 100, 101, 103, 99, 101, 102, 100, 101), lower, false, verdictSame},
		{"same: identical runs", steady, steady, lower, false, verdictSame},
	} {
		if got := summarize(c.base, c.tree, c.m, c.moreFailed).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestVerdictMissing: a metric absent from one side, from some runs, or
// reported a different number of times on the two sides is missing, never a
// panic or a verdict over misaligned pairs.
func TestVerdictMissing(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name       string
		base, tree []float64
	}{
		{"absent on both sides", nil, nil},
		{"absent from the tree", []float64{1, 2}, nil},
		{"absent from the base", nil, []float64{1, 2}},
		{"different lengths", []float64{1, 2, 3}, []float64{1, 2}},
		{"absent from one base run", []float64{1, nan}, []float64{1, 2}},
		{"absent from one tree run", []float64{1, 2}, []float64{nan, 2}},
	} {
		if got := summarize(c.base, c.tree, lower, false).verdict; got != verdictMissing {
			t.Errorf("%s: verdict %q, want %q", c.name, got, verdictMissing)
		}
	}
}

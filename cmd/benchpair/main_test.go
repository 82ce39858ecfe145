package main

import "testing"

func TestSummarize(t *testing.T) {
	base := []float64{10, 12, 11, 13, 10}
	tree := []float64{5, 12, 6, 14, 4}
	s := summarize(base, tree, false)
	if s.baseMedian != 11 || s.treeMedian != 6 || s.baseIQR != 2 || s.treeIQR != 7 {
		t.Fatalf("lower-is-better summary: %+v", s)
	}
	if s.wins != 3 { // a tie and a loss count for neither side
		t.Fatalf("wins = %d, want 3", s.wins)
	}
	if up := summarize(base, tree, true); up.wins != 1 {
		t.Fatalf("higher-is-better wins = %d, want 1", up.wins)
	}
}

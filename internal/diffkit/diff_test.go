package diffkit

import (
	"strings"
	"testing"
	"testing/quick"
)

// apply replays an edit script to reconstruct b from a.
func apply(a []string, edits []Edit) []string {
	var out []string
	ai := 0
	for _, e := range edits {
		switch e.Op {
		case OpEqual:
			out = append(out, a[ai])
			ai++
		case OpDelete:
			ai++
		case OpInsert:
			out = append(out, e.Text)
		}
	}
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDiffIdentical(t *testing.T) {
	a := []string{"x", "y", "z"}
	edits := Diff(a, a)
	s := Summarize(edits)
	if s.Equal != 3 || s.Deleted != 0 || s.Added != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDiffEmptyCases(t *testing.T) {
	if edits := Diff(nil, nil); len(edits) != 0 {
		t.Fatal("nil/nil should be empty")
	}
	edits := Diff(nil, []string{"a", "b"})
	if s := Summarize(edits); s.Added != 2 || s.Equal != 0 {
		t.Fatalf("insert-all: %+v", s)
	}
	edits = Diff([]string{"a", "b"}, nil)
	if s := Summarize(edits); s.Deleted != 2 || s.Equal != 0 {
		t.Fatalf("delete-all: %+v", s)
	}
}

func TestDiffInsertMiddle(t *testing.T) {
	a := []string{"for epoch", "train step", "log acc"}
	b := []string{"for epoch", "train step", "log loss", "log acc"}
	edits := Diff(a, b)
	s := Summarize(edits)
	if s.Equal != 3 || s.Added != 1 || s.Deleted != 0 {
		t.Fatalf("stats: %+v\n%v", s, edits)
	}
	if !eq(apply(a, edits), b) {
		t.Fatal("apply(edits) != b")
	}
}

func TestDiffReplacement(t *testing.T) {
	a := []string{"alpha", "beta", "gamma"}
	b := []string{"alpha", "BETA", "gamma"}
	edits := Diff(a, b)
	s := Summarize(edits)
	if s.Equal != 2 || s.Added != 1 || s.Deleted != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if !eq(apply(a, edits), b) {
		t.Fatal("reconstruction failed")
	}
}

func TestDiffMinimality(t *testing.T) {
	// Myers yields a minimal script: for these inputs the optimal edit
	// distance is known.
	a := strings.Split("abcabba", "")
	b := strings.Split("cbabac", "")
	edits := Diff(a, b)
	s := Summarize(edits)
	if s.Added+s.Deleted != 5 { // classic Myers paper example, D=5
		t.Fatalf("expected D=5, got %d (%+v)", s.Added+s.Deleted, s)
	}
	if !eq(apply(a, edits), b) {
		t.Fatal("reconstruction failed")
	}
}

func TestDiffReconstructionProperty(t *testing.T) {
	f := func(xa, xb []uint8) bool {
		a := make([]string, len(xa))
		for i, v := range xa {
			a[i] = string(rune('a' + v%4)) // small alphabet → many matches
		}
		b := make([]string, len(xb))
		for i, v := range xb {
			b[i] = string(rune('a' + v%4))
		}
		return eq(apply(a, Diff(a, b)), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAlign(t *testing.T) {
	a := []string{"h1", "x", "h2", "y"}
	b := []string{"h1", "h2", "new", "y"}
	m := Align(a, b)
	if m[0] != 0 { // h1
		t.Fatalf("align[0]=%d", m[0])
	}
	if m[1] != 2 { // h2 moved up
		t.Fatalf("align[1]=%d", m[1])
	}
	if m[2] != -1 { // inserted
		t.Fatalf("align[2]=%d", m[2])
	}
	if m[3] != 3 { // y
		t.Fatalf("align[3]=%d", m[3])
	}
}

func TestAlignConsistencyProperty(t *testing.T) {
	// Property: Align maps matched elements to equal elements, in order and
	// one to one, and matches as many as the edit script keeps.
	f := func(xa, xb []uint8) bool {
		a := make([]string, len(xa))
		for i, v := range xa {
			a[i] = string(rune('a' + v%3))
		}
		b := make([]string, len(xb))
		for i, v := range xb {
			b[i] = string(rune('a' + v%3))
		}
		last, matched := -1, 0
		for j, i := range Align(a, b) {
			if i >= 0 {
				if a[i] != b[j] || i <= last {
					return false
				}
				last = i
				matched++
			}
		}
		return matched == Summarize(Diff(a, b)).Equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Package diffkit provides the source-differencing machinery behind FlorDB's
// cross-version log-statement propagation (§2 of the paper, adapted from
// fine-grained source differencing à la GumTree [6]).
//
// It offers a Myers O(ND) edit script over token/line sequences and an
// alignment map between two sequences. The statement-level anchoring used
// to inject flor.log statements into historical versions builds on Align
// (see internal/replay).
package diffkit

// Op is an edit operation kind.
type Op int

// Edit operations.
const (
	OpEqual Op = iota
	OpDelete
	OpInsert
)

// String renders the op.
func (o Op) String() string {
	switch o {
	case OpEqual:
		return "="
	case OpDelete:
		return "-"
	case OpInsert:
		return "+"
	default:
		return "?"
	}
}

// Edit is one element of an edit script. For OpEqual and OpDelete, AIndex is
// the index into the old sequence; for OpEqual and OpInsert, BIndex is the
// index into the new sequence. Unused indexes are -1.
type Edit struct {
	Op     Op
	Text   string
	AIndex int
	BIndex int
}

// Diff computes a minimal edit script transforming a into b using Myers'
// O(ND) greedy algorithm.
func Diff(a, b []string) []Edit {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	max := n + m
	// v[k+max] = furthest x on diagonal k.
	v := make([]int, 2*max+2)
	var trace [][]int
	var dFound = -1
outer:
	for d := 0; d <= max; d++ {
		vc := make([]int, len(v))
		copy(vc, v)
		trace = append(trace, vc)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+max] < v[k+1+max]) {
				x = v[k+1+max] // down: insert from b
			} else {
				x = v[k-1+max] + 1 // right: delete from a
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+max] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
	}
	// Backtrack.
	var rev []Edit
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vPrev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[k-1+max] < vPrev[k+1+max]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[prevK+max]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			rev = append(rev, Edit{Op: OpEqual, Text: a[x], AIndex: x, BIndex: y})
		}
		if x == prevX { // came from below: insertion
			y--
			rev = append(rev, Edit{Op: OpInsert, Text: b[y], AIndex: -1, BIndex: y})
		} else { // came from left: deletion
			x--
			rev = append(rev, Edit{Op: OpDelete, Text: a[x], AIndex: x, BIndex: -1})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		rev = append(rev, Edit{Op: OpEqual, Text: a[x], AIndex: x, BIndex: y})
	}
	// d == 0 leftovers cannot exist (x==y==0 by construction when d==0).
	out := make([]Edit, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Align returns, for each index j in b, the index i in a that the same
// (equal) element occupies, or -1 when b[j] was inserted. This is the
// correspondence map that statement propagation uses to locate anchors.
func Align(a, b []string) []int {
	edits := Diff(a, b)
	out := make([]int, len(b))
	for i := range out {
		out[i] = -1
	}
	for _, e := range edits {
		if e.Op == OpEqual {
			out[e.BIndex] = e.AIndex
		}
	}
	return out
}

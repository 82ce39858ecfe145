package diffkit

// Stats summarizes an edit script.
type Stats struct {
	Equal   int
	Deleted int
	Added   int
}

// Summarize counts operations in an edit script.
func Summarize(edits []Edit) Stats {
	var s Stats
	for _, e := range edits {
		switch e.Op {
		case OpEqual:
			s.Equal++
		case OpDelete:
			s.Deleted++
		case OpInsert:
			s.Added++
		}
	}
	return s
}

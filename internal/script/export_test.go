package script

// CountLogCalls counts flor.log statements in a file.
func CountLogCalls(f *File) int {
	count := 0
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			if es, ok := s.(*ExprStmt); ok {
				if call, isCall := es.X.(*CallExpr); isCall && call.Fn == "flor.log" {
					count++
				}
			}
			for _, b := range Body(s) {
				walk(b)
			}
		}
	}
	walk(f.Stmts)
	return count
}

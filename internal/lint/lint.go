// Package lint is florvet — FlorDB's custom go/analysis suite of five
// analyzers. Each subpackage encodes one hand-maintained engine invariant
// from DESIGN §7–§9 as a static check, so the invariants are enforced at
// every call site on every build instead of only at the sites the race
// detector and crash matrix happen to execute. DESIGN §10 maps each analyzer to
// the invariant it encodes and the dynamic check it complements.
//
// Run the suite with `make vet-custom`, which builds cmd/florvet and
// drives it through `go vet -vettool` over ./....
package lint

import (
	"golang.org/x/tools/go/analysis"

	"flordb/internal/lint/atomicfield"
	"flordb/internal/lint/deterministicrender"
	"flordb/internal/lint/epochorder"
	"flordb/internal/lint/lockfsync"
	"flordb/internal/lint/walerrcheck"
)

// Analyzers returns the full florvet suite, in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.Analyzer,
		deterministicrender.Analyzer,
		epochorder.Analyzer,
		lockfsync.Analyzer,
		walerrcheck.Analyzer,
	}
}

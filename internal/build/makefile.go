// Package build is FlorDB's incremental build subsystem: a Makefile-subset
// parser plus a parallel, caching runner over the rule DAG. The paper (§2,
// Figures 1–2) models the ML lifecycle as a Makefile-driven pipeline whose
// dependency graph is behavioral context, queryable as the `build_deps`
// virtual table; this package supplies that pipeline engine.
//
// The Makefile subset is rules of the form
//
//	target: dep1 dep2
//		command
//		command
//
// with #-comments and blank lines. Recipe lines must begin with a tab, each
// target may be defined once, and the dependency graph must be acyclic —
// violations are reported with line numbers at Parse time. Names that appear
// only as dependencies (corpus, src1, label_by_hand, …) are sources: inputs
// with no recipe, assumed to exist, dirtied via Runner.Touch.
package build

import (
	"fmt"
	"strings"
)

// Rule is one Makefile rule: a target, its dependencies, and its recipe.
type Rule struct {
	Target string
	Deps   []string
	Cmds   []string
	Line   int // 1-based line of the "target:" header, for error reporting
}

// Makefile is a parsed rule set. Rules keeps file order; lookup is by name.
type Makefile struct {
	Rules   []*Rule
	byName  map[string]*Rule
	sources []string // rule-less dependency names, in first-appearance order
}

// Rule returns the rule defining the named target, if any.
func (mf *Makefile) Rule(name string) (*Rule, bool) {
	r, ok := mf.byName[name]
	return r, ok
}

// Known reports whether name is a target or a source of this makefile.
func (mf *Makefile) Known(name string) bool {
	if _, ok := mf.byName[name]; ok {
		return true
	}
	for _, s := range mf.sources {
		if s == name {
			return true
		}
	}
	return false
}

// Parse parses the Makefile subset. It rejects recipes indented with spaces
// instead of a tab, recipes before the first target, duplicate targets,
// malformed rule headers, and dependency cycles, each with the offending
// line number.
func Parse(text string) (*Makefile, error) {
	mf := &Makefile{byName: make(map[string]*Rule)}
	var cur *Rule
	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		switch {
		case strings.TrimSpace(line) == "":
			// blank (possibly whitespace-only, even tab-led)
		case strings.HasPrefix(line, "\t"):
			if cur == nil {
				return nil, fmt.Errorf("build: line %d: recipe before first target", ln)
			}
			cur.Cmds = append(cur.Cmds, strings.TrimSpace(line))
		case strings.HasPrefix(strings.TrimSpace(line), "#"):
			// comment
		case line[0] == ' ':
			// "  a: b" is a mis-indented header; "  curl http://x" is a
			// recipe missing its tab — diagnose by the first token.
			if fields := strings.Fields(line); len(fields) > 0 && strings.Contains(fields[0], ":") {
				return nil, fmt.Errorf("build: line %d: rule header must start in column 1, not after spaces", ln)
			}
			return nil, fmt.Errorf("build: line %d: recipe must be indented with a tab, not spaces", ln)
		default:
			if idx := strings.Index(line, "#"); idx >= 0 {
				line = line[:idx]
			}
			target, deps, ok := strings.Cut(line, ":")
			if !ok {
				return nil, fmt.Errorf("build: line %d: expected \"target: deps\", got %q", ln, strings.TrimSpace(line))
			}
			if strings.Contains(deps, ":") {
				return nil, fmt.Errorf("build: line %d: unexpected ':' in dependency list %q", ln, strings.TrimSpace(deps))
			}
			target = strings.TrimSpace(target)
			if target == "" {
				return nil, fmt.Errorf("build: line %d: empty target name", ln)
			}
			if len(strings.Fields(target)) != 1 {
				return nil, fmt.Errorf("build: line %d: exactly one target per rule, got %q", ln, target)
			}
			if prev, dup := mf.byName[target]; dup {
				return nil, fmt.Errorf("build: line %d: duplicate target %q (first defined at line %d)", ln, target, prev.Line)
			}
			cur = &Rule{Target: target, Deps: strings.Fields(deps), Line: ln}
			mf.byName[target] = cur
			mf.Rules = append(mf.Rules, cur)
		}
	}
	seen := make(map[string]bool)
	for _, r := range mf.Rules {
		for _, d := range r.Deps {
			if _, isTarget := mf.byName[d]; !isTarget && !seen[d] {
				seen[d] = true
				mf.sources = append(mf.sources, d)
			}
		}
	}
	if cycle := findCycle(mf); cycle != nil {
		return nil, fmt.Errorf("build: line %d: dependency cycle: %s",
			mf.byName[cycle[0]].Line, strings.Join(cycle, " -> "))
	}
	return mf, nil
}

// findCycle runs a colored DFS over the rule graph and returns the first
// cycle found as a path (closed: first == last), or nil.
func findCycle(mf *Makefile) []string {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // done
	)
	color := make(map[string]int, len(mf.Rules))
	var path []string
	var dfs func(name string) []string
	dfs = func(name string) []string {
		r, ok := mf.byName[name]
		if !ok { // source: no outgoing edges
			return nil
		}
		color[name] = gray
		path = append(path, name)
		for _, d := range r.Deps {
			switch color[d] {
			case gray:
				for j, p := range path {
					if p == d {
						return append(append([]string(nil), path[j:]...), d)
					}
				}
			case white:
				if c := dfs(d); c != nil {
					return c
				}
			}
		}
		path = path[:len(path)-1]
		color[name] = black
		return nil
	}
	for _, r := range mf.Rules {
		if color[r.Target] == white {
			if c := dfs(r.Target); c != nil {
				return c
			}
		}
	}
	return nil
}

// topoRules returns the rules reachable from the goals, dependencies before
// dependents. Order is deterministic: a DFS postorder that follows deps in
// declaration order. Rule-less sources are not listed.
func (mf *Makefile) topoRules(goals ...string) []*Rule {
	var order []*Rule
	done := make(map[string]bool)
	var dfs func(name string)
	dfs = func(name string) {
		if done[name] {
			return
		}
		done[name] = true
		r, ok := mf.byName[name]
		if !ok {
			return
		}
		for _, d := range r.Deps {
			dfs(d)
		}
		order = append(order, r)
	}
	for _, g := range goals {
		dfs(g)
	}
	return order
}

// Dataflow renders the makefile's DAG as text, one rule per line in
// dependency order ("target <- dep, dep"), the shape of Figure 2's pipeline
// diagram.
func Dataflow(mf *Makefile) string {
	goals := make([]string, len(mf.Rules))
	for i, r := range mf.Rules {
		goals[i] = r.Target
	}
	order := mf.topoRules(goals...)
	width := 0
	for _, r := range order {
		if len(r.Target) > width {
			width = len(r.Target)
		}
	}
	var b strings.Builder
	for _, r := range order {
		if len(r.Deps) == 0 {
			fmt.Fprintf(&b, "%-*s <- (nothing)\n", width, r.Target)
			continue
		}
		fmt.Fprintf(&b, "%-*s <- %s\n", width, r.Target, strings.Join(r.Deps, ", "))
	}
	return b.String()
}

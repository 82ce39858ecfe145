package sqlparse

import (
	"fmt"

	"flordb/internal/relation"
)

// ExecuteScan is the reference executor: no planner, no batches, no
// parallelism. Every source is fully scanned, joins are row hash joins in
// statement order building on the right input, WHERE filters the joined
// stream post hoc, and projection and aggregation are the volcano-style row
// operators. The randomized equivalence properties and FuzzPlannedVsScan
// compare the planned pipeline against it, and the C8–C10 benchmarks measure
// it as the baseline; it has no plan to EXPLAIN.
func ExecuteScan(cat relation.Catalog, stmt *SelectStmt) (*Result, error) {
	if stmt.Explain {
		return nil, fmt.Errorf("sql: the reference executor has no plan to EXPLAIN")
	}
	cat, release, err := pinAsOf(cat, stmt)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx := &execCtx{}

	it, err := cat.Source(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		right, err := cat.Source(j.Table.Name)
		if err != nil {
			return nil, err
		}
		binding := j.Table.Binding()
		leftCols, rightCols, residual, err := splitJoinOn(j.On, it.Schema(), right.Schema(), binding)
		if err != nil {
			return nil, err
		}
		if it, err = relation.NewHashJoin(it, right, leftCols, rightCols, binding); err != nil {
			return nil, err
		}
		if residual != nil {
			if it, err = applyFilter(ctx, it, residual); err != nil {
				return nil, err
			}
		}
	}
	if stmt.Where != nil {
		if it, err = applyFilter(ctx, it, stmt.Where); err != nil {
			return nil, err
		}
	}

	// project maps the stream through items with the row projection.
	project := func(items []projItem) (relation.Iterator, error) {
		exprs := make([]relation.ProjExpr, len(items))
		for i, item := range items {
			e, err := compileRowProjExpr(binder{schema: it.Schema()}, ctx, item)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
		}
		return relation.NewProject(it, exprs)
	}
	var c *compiled
	if stmt.HasAggregates() || len(stmt.GroupBy) > 0 {
		ap, err := buildAggPlan(stmt)
		if err != nil {
			return nil, err
		}
		pre, err := project(ap.pre)
		if err != nil {
			return nil, err
		}
		grouped, err := relation.NewGroup(pre, ap.groupCols, ap.specs)
		if err != nil {
			return nil, err
		}
		if c, err = compileAggPost(grouped, nil, stmt, ctx, ap); err != nil {
			return nil, err
		}
	} else {
		if stmt.Having != nil {
			return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
		}
		visible := selectItems(stmt, it.Schema())
		c, err = finishRows(stmt, itemNames(visible), func(hidden []projItem) (relation.Iterator, *PlanNode, error) {
			out, err := project(append(visible, hidden...))
			return out, nil, err
		})
		if err != nil {
			return nil, err
		}
	}
	return c.run(ctx)
}

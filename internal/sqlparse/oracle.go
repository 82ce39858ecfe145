package sqlparse

import (
	"fmt"
	"iter"

	"flordb/internal/relation"
)

// ExecuteScan is the reference executor: no planner, no batches, no
// parallelism. Every source is fully scanned, joins are row hash joins in
// statement order building on the right input, WHERE filters the joined
// sequence post hoc, and projection and aggregation are the row functions
// over lazy sequences. The randomized equivalence properties and
// FuzzPlannedVsScan compare the planned pipeline against it, and the C8–C10
// benchmarks measure it as the baseline; it has no plan to EXPLAIN.
func ExecuteScan(cat *relation.Snapshot, stmt *SelectStmt) (*Result, error) {
	if stmt.Explain {
		return nil, fmt.Errorf("sql: the reference executor has no plan to EXPLAIN")
	}
	cat, release, err := pinAsOf(cat, stmt)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx := &execCtx{}

	schema, rows, err := cat.Source(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		right, build, err := cat.Source(j.Table.Name)
		if err != nil {
			return nil, err
		}
		binding := j.Table.Binding()
		leftCols, rightCols, residual, err := splitJoinOn(j.On, schema, right, binding)
		if err != nil {
			return nil, err
		}
		if schema, rows, err = relation.HashJoin(schema, rows, right, build, leftCols, rightCols, binding); err != nil {
			return nil, err
		}
		if residual != nil {
			if rows, err = applyFilter(ctx, schema, rows, residual); err != nil {
				return nil, err
			}
		}
	}
	if stmt.Where != nil {
		if rows, err = applyFilter(ctx, schema, rows, stmt.Where); err != nil {
			return nil, err
		}
	}

	// project maps the sequence through items with the row projection.
	project := func(items []projItem) (*relation.Schema, iter.Seq[relation.Row], error) {
		exprs := make([]relation.ProjExpr, len(items))
		for i, item := range items {
			e, err := compileRowProjExpr(binder{schema: schema}, ctx, item)
			if err != nil {
				return nil, nil, err
			}
			exprs[i] = e
		}
		return relation.Project(rows, exprs)
	}
	var c *compiled
	if stmt.HasAggregates() || len(stmt.GroupBy) > 0 {
		ap, err := buildAggPlan(stmt)
		if err != nil {
			return nil, err
		}
		preSchema, pre, err := project(ap.pre)
		if err != nil {
			return nil, err
		}
		groupedSchema, grouped, err := relation.Group(preSchema, pre, ap.groupCols, ap.specs)
		if err != nil {
			return nil, err
		}
		if c, err = compileAggPost(groupedSchema, grouped, nil, stmt, ctx, ap); err != nil {
			return nil, err
		}
	} else {
		if stmt.Having != nil {
			return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
		}
		visible := selectItems(stmt, schema)
		c, err = finishRows(stmt, itemNames(visible), func(hidden []projItem) (iter.Seq[relation.Row], *PlanNode, error) {
			_, out, err := project(append(visible, hidden...))
			return out, nil, err
		})
		if err != nil {
			return nil, err
		}
	}
	return c.run(ctx)
}

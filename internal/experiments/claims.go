package experiments

import "fmt"

// The claim vocabulary. A ref names one cell; the constructors below
// cover the shapes the figures assert, and anything else writes its
// own Check with compare. Every comparison is written so that a NaN —
// a cell the run did not produce — makes the claim false.

// ref addresses one cell by row name and column name.
type ref struct{ row, col string }

func (c ref) String() string { return fmt.Sprintf("%s [%s]", c.row, c.col) }

// holds evaluates "a op b" for op in <=, <, >=, >, ==.
func holds(a float64, op string, b float64) bool {
	switch op {
	case "<=":
		return a <= b
	case "<":
		return a < b
	case ">=":
		return a >= b
	case ">":
		return a > b
	case "==":
		return a == b
	}
	panic("experiments: unknown comparison " + op)
}

// compare checks "a op factor×b".
func compare(r *Report, a ref, op string, factor float64, b ref) error {
	av, bv := r.Cell(a.row, a.col), r.Cell(b.row, b.col)
	if !holds(av, op, factor*bv) {
		return fmt.Errorf("%v = %.4g, want %s %g × %v = %.4g", a, av, op, factor, b, bv)
	}
	return nil
}

// cmp claims "a op factor×b".
func cmp(name string, a ref, op string, factor float64, b ref) Claim {
	return Claim{Name: name, Check: func(r *Report) error { return compare(r, a, op, factor, b) }}
}

// bound claims "cell op limit" for every listed cell: counts and
// meters against an exact value, timings against zero.
func bound(name, op string, limit float64, cells ...ref) Claim {
	return Claim{Name: name, Check: func(r *Report) error {
		for _, c := range cells {
			if v := r.Cell(c.row, c.col); !holds(v, op, limit) {
				return fmt.Errorf("%v = %.4g, want %s %g", c, v, op, limit)
			}
		}
		return nil
	}}
}

// everyRow is bound over the named columns of every row match selects,
// for grids whose labels repeat or whose row set depends on the run.
func everyRow(name string, match func(Row) bool, op string, limit float64, cols ...string) Claim {
	return Claim{Name: name, Check: func(r *Report) error {
		for _, row := range r.Rows {
			for _, col := range cols {
				if v := r.cellOf(row, col); match(row) && !holds(v, op, limit) {
					return fmt.Errorf("%v = %.4g, want %s %g", ref{row.Name(), col}, v, op, limit)
				}
			}
		}
		return nil
	}}
}

// anyRow selects every row.
func anyRow(Row) bool { return true }

// rowwise claims "a op factor×b" between two columns of every row:
// the rows carry their own thresholds as hidden cells.
func rowwise(name, a, op string, factor float64, b string) Claim {
	return Claim{Name: name, Check: func(r *Report) error {
		for _, row := range r.Rows {
			if err := compare(r, ref{row.Name(), a}, op, factor, ref{row.Name(), b}); err != nil {
				return err
			}
		}
		return nil
	}}
}

// rowCount claims the grid has n rows: a figure that silently drops a
// configuration must not pass on the ones that remain.
func rowCount(name string, n int) Claim {
	return Claim{Name: name, Check: func(r *Report) error {
		if len(r.Rows) != n {
			return fmt.Errorf("%d rows, want %d", len(r.Rows), n)
		}
		return nil
	}}
}

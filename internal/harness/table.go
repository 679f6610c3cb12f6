package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Table is one experiment grid ready for export: named columns and rows
// of typed cells.  Sweeps project their points into a Table, and the
// Table alone decides how a cell prints, so every CSV the experiments
// write shares one formatting and quoting rule.
//
// A cell is a string, int, int64, uint64, bool or Float.
type Table struct {
	Columns []string
	Rows    [][]any
}

// Float is a float cell printed with Prec decimals.
type Float struct {
	V    float64
	Prec int
}

// WriteCSV writes the header and then one record per row.  A row whose
// width differs from the header's, or a cell of any other type, is an
// error.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	rec := make([]string, len(t.Columns))
	for i, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("table row %d has %d cells, want %d", i, len(row), len(t.Columns))
		}
		for j, c := range row {
			switch v := c.(type) {
			case string:
				rec[j] = v
			case int:
				rec[j] = strconv.Itoa(v)
			case int64:
				rec[j] = strconv.FormatInt(v, 10)
			case uint64:
				rec[j] = strconv.FormatUint(v, 10)
			case bool:
				rec[j] = strconv.FormatBool(v)
			case Float:
				rec[j] = strconv.FormatFloat(v.V, 'f', v.Prec, 64)
			default:
				return fmt.Errorf("table row %d column %s: unsupported cell type %T", i, t.Columns[j], c)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

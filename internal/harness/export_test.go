package harness

import (
	"math"
	"strings"
	"testing"

	"swsm/internal/stats"
)

// TestTableWriteCSV pins the one cell formatter: every cell type, CSV
// quoting, and the errors for an unknown cell type and a ragged row.
func TestTableWriteCSV(t *testing.T) {
	tab := &Table{
		Columns: []string{"s", "i", "i64", "u64", "b", "f"},
		Rows: [][]any{
			{`a,"b"`, -3, int64(-1) << 40, uint64(math.MaxUint64), true, Float{2.0 / 3, 4}},
			{"", 0, int64(0), uint64(0), false, Float{1234.5, 0}},
		},
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "s,i,i64,u64,b,f\n" +
		`"a,""b""",-3,-1099511627776,18446744073709551615,true,0.6667` + "\n" +
		",0,0,0,false,1234\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
	for _, bad := range []*Table{
		{Columns: []string{"x"}, Rows: [][]any{{1.5}}},
		{Columns: []string{"x", "y"}, Rows: [][]any{{"only one"}}},
	} {
		if err := bad.WriteCSV(&strings.Builder{}); err == nil {
			t.Errorf("table %v wrote without error", bad.Rows)
		}
	}
}

func TestWriteFigure3CSV(t *testing.T) {
	bars := []*AppBar{{
		App: "toy", Ideal: 8,
		HLRC: map[string]float64{"AO": 2.5},
		SC:   map[string]float64{"AO": 3},
	}}
	var sb strings.Builder
	if err := Figure3Table(bars, []LayerConfig{{"A", "O"}}).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"app,protocol,config,speedup", "toy,ideal,ideal,8.0000",
		"toy,hlrc,AO,2.5000", "toy,sc,AO,3.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteFigure4CSV(t *testing.T) {
	row := Figure4Row{App: "toy", Proto: HLRC, Config: "AO", Cycles: 42}
	row.Breakdown[stats.Busy] = 40
	var sb strings.Builder
	if err := Figure4Table([]Figure4Row{row}).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "toy,hlrc,AO,42,40") {
		t.Fatalf("bad csv:\n%s", sb.String())
	}
}

// TestWriteFigure5CSV pins the multi-app export: one header, then every
// app's points.
func TestWriteFigure5CSV(t *testing.T) {
	var sb strings.Builder
	pts := [][]Figure5Point{
		{{Param: "bandwidth", Factor: "0", Proto: SC, Speedup: 1.5}},
		{{Param: "overhead", Factor: "2", Proto: HLRC, Speedup: 0.25}, {Param: "overhead", Factor: "1", Proto: HLRC, Speedup: 1}},
	}
	if err := Figure5Table([]string{"toy", "other"}, pts).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "app,protocol,parameter,factor,speedup\n" +
		"toy,sc,bandwidth,0,1.5000\n" +
		"other,hlrc,overhead,2,0.2500\n" +
		"other,hlrc,overhead,1,1.0000\n"
	if sb.String() != want {
		t.Fatalf("bad csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}

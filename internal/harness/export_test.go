package harness

import (
	"strings"
	"testing"

	"swsm/internal/stats"
)

func TestWriteFigure3CSV(t *testing.T) {
	bars := []*AppBar{{
		App: "toy", Ideal: 8,
		HLRC: map[string]float64{"AO": 2.5},
		SC:   map[string]float64{"AO": 3},
	}}
	var sb strings.Builder
	if err := WriteFigure3CSV(&sb, bars, []LayerConfig{{"A", "O"}}); err != nil {
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
	if err := WriteFigure4CSV(&sb, []Figure4Row{row}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "toy,hlrc,AO,42,40") {
		t.Fatalf("bad csv:\n%s", sb.String())
	}
}

func TestWriteFigure5CSV(t *testing.T) {
	var sb strings.Builder
	pts := []Figure5Point{{Param: "bandwidth", Factor: "0", Proto: SC, Speedup: 1.5}}
	if err := WriteFigure5CSV(&sb, "toy", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "toy,sc,bandwidth,0,1.5000") {
		t.Fatalf("bad csv:\n%s", sb.String())
	}
}

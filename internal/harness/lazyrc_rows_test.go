package harness_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/apps/litmus"
	"swsm/internal/harness"
)

// rowsCase is one run whose whole RunRow the lazy-release-consistency
// golden pins.  Litmus programs run through RunInstance, so their seeds
// stay out of the app registry.
type rowsCase struct {
	label  string
	spec   harness.RunSpec
	litmus bool
	seed   uint64
}

func (c rowsCase) row() ([]byte, error) {
	var res *harness.Result
	var err error
	if c.litmus {
		res, err = harness.RunInstance(c.spec, litmus.Generate(c.seed, c.spec.Procs, c.spec.Scale), nil)
	} else {
		res, err = harness.Run(c.spec)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(harness.NewRunRow(res))
}

// lazyRCCases lists the pinned runs: every registered application at
// Tiny/4p and Tiny/8p under hlrc, lrc, hlrc with 256-byte units, and
// hlrc and lrc with 1% wire drops; ocean-rowwise and water-nsquared at
// Base/8p on the mixed machine with adaptive homes and grain (which
// rehome and demote pages); and litmus seeds 0-23 under hlrc and lrc at
// Base/4p.
func lazyRCCases() []rowsCase {
	var cases []rowsCase
	add := func(label string, spec harness.RunSpec) {
		cases = append(cases, rowsCase{label: label, spec: spec})
	}
	for _, app := range apps.Names() {
		if strings.HasPrefix(app, "litmus-") {
			continue // seeds registered by other tests
		}
		for _, procs := range []int{4, 8} {
			at := func(prot harness.ProtocolKind) harness.RunSpec {
				s := harness.DefaultSpec(app, prot)
				s.Scale = apps.Tiny
				s.Procs = procs
				return s
			}
			prefix := fmt.Sprintf("%s Tiny/%dp ", app, procs)
			add(prefix+"hlrc", at(harness.HLRC))
			add(prefix+"lrc", at(harness.LRC))
			unit := at(harness.HLRC)
			unit.HLRCUnitShift = 8
			add(prefix+"hlrc unit=256", unit)
			add(prefix+"hlrc drop=1%", harness.FaultedSpec(at(harness.HLRC), 1, 10_000))
			add(prefix+"lrc drop=1%", harness.FaultedSpec(at(harness.LRC), 1, 10_000))
		}
	}
	hs, err := harness.HeteroSpec("mixed", "adaptive+grain")
	if err != nil {
		panic(err)
	}
	for _, app := range []string{"ocean-rowwise", "water-nsquared"} {
		s := harness.DefaultSpec(app, harness.HLRC)
		s.Scale = apps.Base
		s.Procs = 8
		s.Hetero = hs
		add(app+" Base/8p hlrc mixed adaptive+grain", s)
	}
	for seed := uint64(0); seed < 24; seed++ {
		for _, prot := range []harness.ProtocolKind{harness.HLRC, harness.LRC} {
			s := harness.DefaultSpec(litmus.Name(seed), prot)
			s.Scale = apps.Base
			s.Procs = 4
			cases = append(cases, rowsCase{
				label: fmt.Sprintf("%s Base/4p %s", litmus.Name(seed), prot),
				spec:  s, litmus: true, seed: seed,
			})
		}
	}
	return cases
}

// TestLazyRCRowsGolden pins the whole result row of every lazyRCCases
// run byte for byte: cycles, breakdown, counters and message traffic of
// both lazy-release-consistency protocols.  A refactor of the shared
// substrate or either diff-propagation policy must reproduce them
// exactly; a deliberate model change re-pins with
//
//	go test ./internal/harness -run TestLazyRCRowsGolden -update
func TestLazyRCRowsGolden(t *testing.T) {
	cases := lazyRCCases()
	rows := make([][]byte, len(cases))
	errs := make([]error, len(cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i], errs[i] = cases[i].row()
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

	var buf bytes.Buffer
	var rehomed, demoted, retransmits bool
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.label, errs[i])
		}
		var row harness.RunRow
		if err := json.Unmarshal(rows[i], &row); err != nil {
			t.Fatal(err)
		}
		rehomed = rehomed || row.Counters["pagesRehomed"] > 0
		demoted = demoted || row.Counters["pagesDemoted"] > 0
		retransmits = retransmits || row.Counters["retransmits"] > 0
		fmt.Fprintf(&buf, "== %s\n%s\n", c.label, rows[i])
	}
	if !rehomed || !demoted || !retransmits {
		t.Errorf("the cases no longer exercise every path: rehomed=%v demoted=%v retransmits=%v",
			rehomed, demoted, retransmits)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "lazyrc_rows.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("rows differ from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("rows differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

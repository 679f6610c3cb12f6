package harness_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/apps/litmus"
	"swsm/internal/consistency"
	"swsm/internal/harness"
	"swsm/internal/proto"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/checker_reports.golden from this build")

// checkerCase is one checked litmus run whose checker report the golden
// file pins.  It runs through RunInstance, so the litmus seeds stay out of
// the app registry that other tests enumerate.
type checkerCase struct {
	label string
	seed  uint64
	prot  harness.ProtocolKind
	procs int
	// newProt substitutes a known-bad protocol; nil runs prot.
	newProt func() proto.Protocol
}

// report runs the case and returns the checker's verdict: the full
// violation report, or the coverage summary when the run conforms.
func (c checkerCase) report() string {
	spec := harness.DefaultSpec(litmus.Name(c.seed), c.prot)
	spec.Scale = apps.Base
	spec.Procs = c.procs
	spec.Check = true
	res, err := harness.RunInstance(spec, litmus.Generate(c.seed, c.procs, apps.Base), c.newProt)
	var v *consistency.Violation
	switch {
	case errors.As(err, &v):
		return v.Error()
	case err != nil:
		return "error: " + err.Error()
	}
	return res.Consistency.String()
}

// checkerCases lists the pinned runs: litmus seeds 0-99 under every
// checked protocol at Base/4p (sc fails seeds 15 and 91 there), seed 74
// under sc at Base/8p, and the dropped-invalidation shim over the range
// findBrokenSeed searches.
func checkerCases() []checkerCase {
	var cases []checkerCase
	for seed := uint64(0); seed < 100; seed++ {
		for _, prot := range checkedProtos {
			cases = append(cases, checkerCase{
				label: fmt.Sprintf("litmus-%d %s Base/4p", seed, prot),
				seed:  seed, prot: prot, procs: 4,
			})
		}
	}
	cases = append(cases, checkerCase{label: "litmus-74 sc Base/8p", seed: 74, prot: harness.SC, procs: 8})
	for seed := uint64(1); seed <= 60; seed++ {
		for n := 1; n <= 3; n++ {
			cases = append(cases, checkerCase{
				label: fmt.Sprintf("litmus-%d hlrc DropNthInvalidation=%d Base/4p", seed, n),
				seed:  seed, prot: harness.HLRC, procs: 4, newProt: brokenHLRC(n),
			})
		}
	}
	return cases
}

// TestCheckerReportsGolden pins every checker report of checkerCases
// byte for byte.  A change to the checker's internals must reproduce its
// verdicts, diagnoses and happens-before paths exactly, and a protocol
// change that alters them shows up as a deliberate golden update:
//
//	go test ./internal/harness -run TestCheckerReportsGolden -update
func TestCheckerReportsGolden(t *testing.T) {
	cases := checkerCases()
	reports := make([]string, len(cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i] = cases[i].report()
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

	var buf bytes.Buffer
	for i, c := range cases {
		fmt.Fprintf(&buf, "== %s\n%s\n", c.label, reports[i])
	}
	got := buf.Bytes()
	for _, want := range []string{"is stale", "returned the initialization value", "consistency violation (SC)"} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("no report contains %q: the cases no longer exercise that diagnosis", want)
		}
	}
	path := filepath.Join("testdata", "checker_reports.golden")
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
				t.Fatalf("checker reports differ from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("checker reports differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

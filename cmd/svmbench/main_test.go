package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swsm/internal/explore"
	"swsm/internal/server"
)

// TestRequestedOutputs checks which outputs a command line runs, and
// that every line a requested output cannot serve fails before any
// runs.
func TestRequestedOutputs(t *testing.T) {
	const srv = "-server=http://127.0.0.1:1"
	for _, tc := range []struct {
		name string
		args string
		want string // the outputs in run order, or "error: <substring>"
	}{
		// The -csv cases: exactly one output writes it.
		{"local figure", "-figure 5 -csv x.csv", "figure5"},
		{"degradation", "-degradation -csv x.csv", "degradation"},
		{"litmus", "-litmus 4 -csv x.csv", "litmus"},
		{"hetero", "-hetero -csv x.csv", "hetero"},
		{"explore", "-explore fft -csv x.csv", "explore"},
		{"explore json remote", "-explore fft -json " + srv + " -csv x.csv", "error: -csv"},
		{"tables write no CSV", "-table 4 -csv x.csv", "error: -csv"},
		{"figure json", "-figure 3 -json -csv x.csv", "error: -csv"},
		{"figure remote", "-figure 3 " + srv + " -csv x.csv", "figure3"},
		{"all", "-all -csv x.csv", "error: -csv"},
		{"all with figure", "-all -figure 3 -csv x.csv", "error: -csv"},
		{"json with a sweep", "-json -figure 3 -degradation -csv x.csv", "error: -json"},
		{"figure and degradation overwrite", "-figure 3 -degradation -csv x.csv", "error: -csv"},
		{"explore drops hetero", "-explore fft -hetero -csv x.csv", "error: -csv"},

		// Every requested output runs.
		{"explore and figure", "-explore fft -figure 3", "figure3 explore"},
		{"all and validate", "-all -validate", "table1 table2 table3 table4 table5 figure3 figure4 figure5 validate"},
		{"all and table", "-all -table 4", "table1 table2 table3 table4 table5 figure3 figure4 figure5"},
		{"sweeps in order", "-hetero -litmus 2 -degradation -hot 2", "trace degradation litmus hetero"},
		{"nothing", "-scale tiny", "error: no output"},

		// -json fits one kind of output; -server every output but the
		// two that need in-process artifacts.
		{"figure json", "-figure 3 -json", "figure3"},
		{"json and litmus", "-figure 3 -json -litmus 2 -apps fft -scale tiny -procs 4", "error: -json"},
		{"remote figure", "-figure 3 -apps fft " + srv, "figure3"},
		{"remote degradation", "-degradation " + srv, "degradation"},
		{"remote table", "-table 4 " + srv, "table4"},
		{"remote all", "-all " + srv, "table1 table2 table3 table4 table5 figure3 figure4 figure5"},
		{"remote sweeps", "-degradation -hetero -litmus 4 -apps fft,lu -scale tiny -procs 4 -parallel 2 " + srv, "degradation litmus hetero"},
		{"remote trace", "-trace t.json " + srv, "error: -server resolves every output but -trace and -validate"},
		{"remote hot objects", "-hot 3 " + srv, "error: -server resolves every output but -trace and -validate"},
		{"remote validate", "-validate " + srv, "error: -server resolves every output but -trace and -validate"},
		{"remote all and validate", "-all -validate " + srv, "error: run validate locally"},

		// A flag no requested output reads.
		{"drops without degradation", "-figure 3 -drops 9", "error: ignores -drops"},
		{"apps for a static table", "-table 1 -apps fft", "error: ignores -apps"},
		{"trace sample without trace", "-figure 4 -trace-sample 100", "error: ignores -trace-sample"},
		{"local store remotely", "-explore fft -explore-store d " + srv, "error: ignores -explore-store"},
		{"explore store locally", "-explore fft -explore-store d", "explore"},

		// Specs are checked before any runs.
		{"no processors", "-figure 3 -apps fft -scale tiny -procs 0", "error: procs 0 outside [1, 64]"},
		{"too many processors", "-figure 3 -apps fft -procs 65", "error: procs 65 outside [1, 64]"},
		{"unknown app", "-figure 4 -apps nosuch", "error: nosuch"},
		{"unknown scale", "-figure 4 -scale huge", "error: unknown scale"},
		{"bad drop rate", "-degradation -drops 1,200", "error: -drops 200.00 outside [0, 100]"},
		{"no figure 2", "-figure 2", "error: no figure 2"},
	} {
		fs := flag.NewFlagSet("svmbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r, err := parseArgs(fs, strings.Fields(tc.args))
		got := ""
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = strings.Join(r.outputs, " ")
		}
		if want, ok := strings.CutPrefix(tc.want, "error: "); ok && err != nil && strings.Contains(err.Error(), want) {
			continue
		}
		if got != tc.want {
			t.Errorf("%s: svmbench %s: got %q, want %q", tc.name, tc.args, got, tc.want)
		}
	}
}

// captureStdout runs f with os.Stdout and os.Stderr sent to files and
// returns what f wrote to stdout.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errf, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, errf
	ferr := f()
	os.Stdout, os.Stderr = stdout, stderr
	out.Close()
	errf.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExploreJSONIsTheReport checks that -explore -json prints one
// explore.Report, counters nested under "progress", and that a cold
// daemon prints the same bytes with -server.
func TestExploreJSONIsTheReport(t *testing.T) {
	s, err := server.New(server.Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	const args = "-explore fft -scale tiny -explore-points 4 -explore-width 4 -explore-protocols hlrc,sc -explore-procs 2,4 -json"
	run := func(extra string) []byte {
		fs := flag.NewFlagSet("svmbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r, err := parseArgs(fs, strings.Fields(args+extra))
		if err != nil {
			t.Fatal(err)
		}
		return captureStdout(t, func() error { return r.run(context.Background(), "explore") })
	}
	local := run("")

	dec := json.NewDecoder(bytes.NewReader(local))
	dec.DisallowUnknownFields()
	var rep explore.Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("local -json is not an explore.Report: %v\n%s", err, local)
	}
	if rep.Stopped != "converged" || rep.Evaluated == 0 || len(rep.Frontier) == 0 {
		t.Errorf("report = %s after %d evaluations, %d frontier points", rep.Stopped, rep.Evaluated, len(rep.Frontier))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(local, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["simsRun"]; ok {
		t.Error("counters printed at the top level")
	}
	if p := string(top["progress"]); !strings.Contains(p, `"simsRun"`) || !strings.Contains(p, `"phase": "descent"`) {
		t.Errorf("progress = %s, want the counters and the last phase", p)
	}

	if remote := run(" -server " + ts.URL); !bytes.Equal(local, remote) {
		t.Errorf("-server prints another record:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}

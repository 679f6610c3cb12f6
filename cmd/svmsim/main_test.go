package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRequestedOutputs checks which output a command line selects, and
// that every line the output cannot serve fails before anything runs.
func TestRequestedOutputs(t *testing.T) {
	const srv = "-server=http://127.0.0.1:1"
	for _, tc := range []struct {
		name string
		args string
		want string // the selected outputs, or "error: <substring>"
	}{
		{"report", "-app fft -scale tiny -procs 4", "report"},
		{"json", "-json -check -drop 1", "json"},
		{"remote report", srv, "remote-report"},
		{"remote json with stitched trace", srv + " -json -stitched-trace x.json", "remote-json"},
		{"traced json", "-json -trace x.json -trace-sample 100", "json trace"},
		{"litmus with drops", "-litmus 2 -drop 1 -scale tiny -procs 4", "litmus"},
		{"list", "-list", "list"},

		{"litmus json", "-litmus 2 -json", "error: a request for litmus ignores -json"},
		{"litmus remote", "-litmus 2 -drop 1 -parallel 2 " + srv, "litmus"},
		{"litmus dup", "-litmus 2 -dup 1", "error: ignores -dup"},
		{"json perproc", "-json -perproc", "error: a request for json ignores -perproc"},
		{"remote trace", srv + " -trace x.json", "error: ignores -trace"},
		{"remote perproc", srv + " -perproc", "error: ignores -perproc"},
		{"remote parallel", srv + " -parallel 2", "error: ignores -parallel"},
		{"stitched trace locally", "-stitched-trace x.json", "error: a request for report ignores -stitched-trace"},
		{"trace sample without trace", "-trace-sample 100", "error: ignores -trace-sample"},
		{"timeline without sample", "-timeline x.csv", "error: -timeline needs -trace-sample"},
		{"list with app", "-list -app fft", "error: ignores -app"},

		{"no processors", "-app fft -scale tiny -procs 0", "error: procs 0 outside [1, 64]"},
		{"too many processors", "-procs 65", "error: procs 65 outside [1, 64]"},
		{"unknown protocol", "-protocol foo", `error: unknown protocol "foo"`},
		{"lrc", "-protocol lrc", "report"},
		{"litmus without processors", "-litmus 2 -procs 0", "error: procs 0 outside [1, 64]"},
		{"unknown scale", "-scale huge", `error: unknown scale "huge"`},
		{"bad drop rate", "-drop 101", "error: -drop 101.00 outside [0, 100]"},
		{"bad pause", "-pause 5", "error: -pause wants EVERY:FOR[:NODEMASK]"},
	} {
		fs := flag.NewFlagSet("svmsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseArgs(fs, strings.Fields(tc.args))
		got := ""
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = strings.Join(o.outputs, " ")
		}
		if want, ok := strings.CutPrefix(tc.want, "error: "); ok && err != nil && strings.Contains(err.Error(), want) {
			continue
		}
		if got != tc.want {
			t.Errorf("%s: svmsim %s: got %q, want %q", tc.name, tc.args, got, tc.want)
		}
	}
}

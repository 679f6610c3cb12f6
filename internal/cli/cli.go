// Package cli holds what svmsim, svmbench and svmd share as commands:
// the rule that rejects a flag no selected output reads, percent flag
// parsing, file output and the litmus ladder runner.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"swsm/internal/harness"
)

// Set returns the names of the flags set on the command line, in
// flag.Visit's sorted order.
func Set(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	return set
}

// CheckFlags rejects each flag of set that reads lists for some output
// but for none of the selected ones: it would be silently ignored.
// reads maps an output to the space-separated flags it reads; a flag
// listed for no output is read by all.  what names the selection in
// the error ("coordinator mode").
func CheckFlags(set []string, reads map[string]string, what string, selected ...string) error {
	read := map[string]bool{}
	for out, flags := range reads {
		for _, f := range strings.Fields(flags) {
			read[f] = read[f] || slices.Contains(selected, out)
		}
	}
	var bad []string
	for _, name := range set {
		if r, listed := read[name]; listed && !r {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%s ignores %s", what, strings.Join(bad, ", "))
}

// PPM converts the percentage given to flag -name into the fault
// plane's parts-per-million rate.
func PPM(name string, pct float64) (int64, error) {
	if pct < 0 || pct > 100 {
		return 0, fmt.Errorf("-%s %.2f outside [0, 100]", name, pct)
	}
	return int64(pct * 1e4), nil
}

// PPMs parses flag -name's comma-separated percentages into PPM rates.
func PPMs(name, cs string) ([]int64, error) {
	var ppms []int64
	for _, s := range strings.Split(cs, ",") {
		pct, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("-%s %q: %v", name, cs, err)
		}
		ppm, err := PPM(name, pct)
		if err != nil {
			return nil, err
		}
		ppms = append(ppms, ppm)
	}
	return ppms, nil
}

// WriteFile creates path, fills it with write and closes it.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCSV writes t to path as CSV and reports "wrote path" on w.
func WriteCSV(w io.Writer, path string, t *harness.Table) error {
	if err := WriteFile(path, t.WriteCSV); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}

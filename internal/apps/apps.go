// Package apps hosts the paper's application suite: the SPLASH-2
// programs of Table 1 plus the restructured-for-SVM variants of [the
// paper's reference 5], re-implemented against the simulated
// shared-address-space Thread API.  Every application is self-checking:
// it computes a real result through the coherence protocol, and Verify
// compares it against a sequential golden model, so protocol correctness
// is load-bearing for the whole suite.
package apps

import (
	"fmt"
	"sort"
	"strings"

	"swsm/internal/core"
)

// Instance is one configured application run.
type Instance interface {
	// Name is the registry key, e.g. "fft", "barnes-spatial".
	Name() string
	// MemBytes is the shared address space the instance needs.
	MemBytes() int64
	// Setup allocates and initializes shared data (before Run).
	Setup(m *core.Machine)
	// Run is the SPMD body executed by every thread.
	Run(t *core.Thread)
	// Verify checks the result against the golden model after Run.
	Verify(m *core.Machine) error
	// SCBlock is the best SC granularity for this application (Table 1
	// discussion: 64 B except FFT 4 KB, LU 2 KB, Ocean 1 KB).
	SCBlock() int
	// Restructured reports whether this is a restructured-for-SVM
	// variant.
	Restructured() bool
}

// Scale selects a problem size.
type Scale int

// Problem scales: Tiny keeps unit tests fast; Base is the default used
// by the figures; Large stresses the harness.
const (
	Tiny Scale = iota
	Base
	Large
)

// ParseScale resolves a scale by its command-line name: tiny, base or
// large.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "base":
		return Base, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("unknown scale %q", name)
}

// Factory builds an instance at a given scale.
type Factory func(s Scale) Instance

// Info describes a registered application for Table 1.
type Info struct {
	Name string
	// BaseSize is the problem-size description at Base scale.
	BaseSize string
	// PaperSize is the problem size the paper used.
	PaperSize string
	// InstrumentationPct is Shasta's software access-control
	// instrumentation cost from Table 1 (percent).
	InstrumentationPct int
	// RestructuredOf names the original this variant restructures ("" if
	// original).
	RestructuredOf string
	Factory        Factory
}

// The registry is written only from init(), before any concurrency
// exists: the static suite registers one Info per name, and a family
// (the seeded litmus programs) registers a resolver for every name under
// its prefix.
var (
	registry = map[string]Info{}
	families = map[string]func(suffix string) (Info, bool){}
)

// Register installs an application.
func Register(info Info) {
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("apps: duplicate registration %q", info.Name))
	}
	registry[info.Name] = info
}

// RegisterFamily installs a resolver for every name that starts with
// prefix: Lookup hands it the rest of the name, and it reports whether
// that names a member.  Family members are not listed by Names.
func RegisterFamily(prefix string, resolve func(suffix string) (Info, bool)) {
	families[prefix] = resolve
}

// Names lists the registered static suite, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the Info for name: a static application, or a member
// of a registered family.
func Lookup(name string) (Info, error) {
	if info, ok := registry[name]; ok {
		return info, nil
	}
	for prefix, resolve := range families {
		if suffix, ok := strings.CutPrefix(name, prefix); ok {
			if info, ok := resolve(suffix); ok {
				return info, nil
			}
		}
	}
	return Info{}, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
}

// New builds an instance by name.
func New(name string, s Scale) (Instance, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return info.Factory(s), nil
}

// BlockRange computes the contiguous [lo,hi) slice of n items owned by
// processor id out of nproc (the standard SPMD decomposition).
func BlockRange(n, nproc, id int) (lo, hi int) {
	base := n / nproc
	rem := n % nproc
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package core

import (
	"fmt"
	"strings"
	"testing"

	"swsm/internal/proto/ideal"
)

// TestOutOfRangeAccessError pins the typed panic: a shared reference
// outside [0, MemLimit) must surface as an *AccessError naming proc,
// addr, size and cycle — not as a raw slice panic from internal/mem —
// so litmus/shrinker output stays actionable.
func TestOutOfRangeAccessError(t *testing.T) {
	cases := []struct {
		name  string
		addr  func(limit int64) int64
		write bool
	}{
		{"store-past-limit", func(l int64) int64 { return l + 4096 }, true},
		{"load-negative", func(l int64) int64 { return -8 }, false},
		{"straddles-limit", func(l int64) int64 { return l - 2 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(idealConfig(1), ideal.New())
			var got *AccessError
			_, err := m.Run(func(th *Thread) {
				defer func() {
					r := recover()
					if r == nil {
						t.Error("out-of-range access did not panic")
						return
					}
					ae, ok := r.(*AccessError)
					if !ok {
						t.Errorf("panic payload %T, want *AccessError: %v", r, r)
						return
					}
					got = ae
				}()
				th.Compute(5)
				a := tc.addr(m.Cfg.MemLimit)
				if tc.write {
					th.Store32(a, 1)
				} else {
					th.Load32(a)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				return
			}
			if got.Proc != 0 || got.Size != 4 || got.Write != tc.write {
				t.Errorf("AccessError fields wrong: %+v", got)
			}
			if got.Addr != tc.addr(m.Cfg.MemLimit) {
				t.Errorf("addr = 0x%x, want 0x%x", got.Addr, tc.addr(m.Cfg.MemLimit))
			}
			if got.Cycle < 5 {
				t.Errorf("cycle = %d, want the compute time included", got.Cycle)
			}
			msg := got.Error()
			for _, want := range []string{"proc 0", "cycle"} {
				if !strings.Contains(msg, want) {
					t.Errorf("message missing %q: %s", want, msg)
				}
			}
		})
	}
}

// TestMemLimitBeyondCacheReach checks that a machine whose address space
// the cache's packed tags cannot tell apart is refused up front, naming
// the reach, and that one exactly at the reach builds.
func TestMemLimitBeyondCacheReach(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 1
	reach := cfg.Cache.Reach()
	cfg.MemLimit = reach
	NewMachine(cfg, ideal.New()).Release()
	cfg.MemLimit = reach + 1
	defer func() {
		msg := fmt.Sprint(recover())
		if want := fmt.Sprintf("MemLimit %d exceeds the cache's reach of %d bytes", reach+1, reach); !strings.Contains(msg, want) {
			t.Fatalf("NewMachine panicked with %q, want %q", msg, want)
		}
	}()
	NewMachine(cfg, ideal.New())
}

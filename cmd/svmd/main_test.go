package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name        string
		set         []string // sorted, as flag.Visit visits
		coordinator bool
		join        bool
		want        string // "" = accepted
	}{
		{"daemon defaults", nil, false, false, ""},
		{"daemon flags", []string{"debug-dir", "drain-timeout", "parallel", "slo-ms", "store"}, false, false, ""},
		{"worker flags", []string{"join", "lease-poll", "node-id", "parallel", "slo-ms"}, false, true, ""},
		{"coordinator flags", []string{"coordinator", "failover-after", "heartbeat-ttl", "node-id", "queue", "standby-of", "store"}, true, false, ""},
		{"coordinator ignores worker flags", []string{"coordinator", "join", "lease-poll"}, true, false, "coordinator mode ignores -join, -lease-poll"},
		{"coordinator ignores daemon flags", []string{"coordinator", "debug-dir", "drain-timeout", "parallel", "slo-ms"}, true, false, "coordinator mode ignores -debug-dir, -drain-timeout, -parallel, -slo-ms"},
		{"daemon ignores coordinator flags", []string{"failover-after", "heartbeat-ttl", "standby-of"}, false, false, "daemon mode ignores -failover-after, -heartbeat-ttl, -standby-of"},
		{"worker ignores coordinator flags", []string{"heartbeat-ttl", "join"}, false, true, "worker mode ignores -heartbeat-ttl"},
		{"daemon ignores cluster identity", []string{"lease-poll", "node-id"}, false, false, "daemon mode ignores -lease-poll, -node-id"},
	} {
		got := ""
		if err := checkFlags(tc.set, tc.coordinator, tc.join); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: checkFlags = %q, want %q", tc.name, got, tc.want)
		}
	}
}

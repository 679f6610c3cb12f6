package main

import "testing"

func TestCSVRequestCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  csvRequest
		ok   bool
	}{
		{"local figure", csvRequest{figure: 5}, true},
		{"degradation", csvRequest{degradation: true}, true},
		{"litmus", csvRequest{litmus: 4}, true},
		{"hetero", csvRequest{hetero: true}, true},
		{"explore", csvRequest{explore: "fft"}, true},
		{"explore json remote", csvRequest{explore: "fft", json: true, server: "http://x"}, true},
		{"tables write no CSV", csvRequest{}, false},
		{"figure json", csvRequest{figure: 3, json: true}, false},
		{"figure remote", csvRequest{figure: 3, server: "http://x"}, false},
		{"all", csvRequest{all: true}, false},
		{"all with figure", csvRequest{all: true, figure: 3}, false},
		{"json returns before the sweep", csvRequest{json: true, figure: 3, degradation: true}, false},
		{"figure and degradation overwrite", csvRequest{figure: 3, degradation: true}, false},
		{"explore drops hetero", csvRequest{explore: "fft", hetero: true}, false},
	} {
		if err := tc.req.check(); (err == nil) != tc.ok {
			t.Errorf("%s: check() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

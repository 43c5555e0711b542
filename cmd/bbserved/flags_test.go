package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

// TestFlagSurface pins bbserved's flags — name, type and default — to the
// list the binary had before its shared flags moved to internal/daemon.
func TestFlagSurface(t *testing.T) {
	want := [][3]string{
		{"addr", "string", ":8080"},
		{"bound", "int", "2"},
		{"d", "int", "2"},
		{"data-dir", "string", ""},
		{"debug-addr", "string", ""},
		{"diag-dir", "string", ""},
		{"engine", "string", "fast"},
		{"fsync", "string", "interval"},
		{"horizon", "int64", "0"},
		{"hot-share", "float64", "0.1"},
		{"k", "int", "1"},
		{"keyed-policy", "string", "adaptive"},
		{"log-format", "string", "text"},
		{"log-level", "string", "info"},
		{"max-keys", "int", "1048576"},
		{"n", "int", "100000"},
		{"proto", "string", "adaptive"},
		{"replicas", "int", "2"},
		{"retries", "int", "3"},
		{"seed", "uint64", "1"},
		{"shards", "int", "8"},
		{"snapshot-every", "int", "4096"},
		{"spec", "string", "adaptive"},
		{"trace-sample", "int", "0"},
		{"trace-slow", "duration", "0s"},
		{"watch-every", "duration", "1s"},
		{"wire-addr", "string", ""},
	}
	fs := flag.NewFlagSet("bbserved", flag.ContinueOnError)
	registerFlags(fs)
	var got [][3]string
	fs.VisitAll(func(f *flag.Flag) {
		typ := strings.TrimSuffix(strings.TrimPrefix(fmt.Sprintf("%T", f.Value), "*flag."), "Value")
		got = append(got, [3]string{f.Name, typ, f.DefValue})
	})
	if len(got) != len(want) {
		t.Errorf("%d flags, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("flag %d: %q, want %q", i, got[i], want[i])
		}
	}
}

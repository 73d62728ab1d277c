package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Betty reads no environment variable: any set BETTY_* variable — a
// retired knob (BETTY_WORKERS; int8 serving and the feature cache are
// gone) or a misspelt one — must abort before any experiment runs, naming
// the variable.
func TestEnvFailsLoudlyAtStartup(t *testing.T) {
	for _, name := range []string{"BETTY_WORKRS", "BETTY_WORKERS", "BETTY_QUANT", "BETTY_SERVE_CACHE_NODES"} {
		t.Run(name, func(t *testing.T) {
			t.Setenv(name, "2")
			var out bytes.Buffer
			err := run(benchConfig{exp: "tab2", scale: 0.08, out: &out})
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s=2: run returned %v, want an error naming it", name, err)
			}
			if out.Len() != 0 {
				t.Fatalf("%s=2: run wrote %q before refusing", name, out.String())
			}
		})
	}
}

// With no knob set, -list prints the registry and a command line naming no
// work is a usage error.
func TestListAndUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run(benchConfig{list: true, out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tab2 ") {
		t.Fatalf("-list output lacks tab2:\n%s", out.String())
	}
	if err := run(benchConfig{out: &out}); !errors.Is(err, errUsage) {
		t.Fatalf("no -exp and no -list: run returned %v, want errUsage", err)
	}
}

// Command bettyvet type-checks the module and runs the project-specific
// static analyzers that machine-check the repository's determinism,
// shard-purity, pool-discipline, hot-allocation, env-knob, and
// observability invariants (see internal/lint and DESIGN.md §9/§14). It is
// zero-dependency and fully offline: one `go list -export` run enumerates
// the packages and compiles them to export data, and each package is
// type-checked once against that export data. The module-scoped analyzers
// (dettaint, envreg, obsdisc) additionally build a whole-module call graph
// and diff the knob registry against the README.
//
// Usage:
//
//	go run ./cmd/bettyvet [-json] [-audit] [packages...]
//
// With no package patterns it analyzes ./.... The exit status is 0 when
// clean, 1 when any diagnostic is reported, and 2 on a load/type error.
// -json emits the diagnostics as a JSON array (empty when clean) for CI
// artifact upload. -audit additionally reports stale suppressions —
// //bettyvet:ok annotations that silence no diagnostic — as findings of
// the pseudo-analyzer "bettyvet-audit", so excused findings cannot outlive
// their excuse.
//
// Intentional findings are silenced in source with a reasoned annotation
// on the offending line or the line above it:
//
//	//bettyvet:ok <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"betty/internal/lint"
)

type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	audit := flag.Bool("audit", false, "also report stale //bettyvet:ok suppressions")
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	m, err := lint.LoadModule(cwd, patterns...)
	if err != nil {
		fatal(err)
	}

	res := m.Run()
	diags := res.Diags
	if *audit {
		diags = append(diags, res.Stale...)
	}

	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     relativize(cwd, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relativize(cwd, d.Pos.Filename)
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "bettyvet: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// relativize shortens abs to a cwd-relative path when possible.
func relativize(cwd, abs string) string {
	if rel, err := filepath.Rel(cwd, abs); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return abs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bettyvet:", err)
	os.Exit(2)
}

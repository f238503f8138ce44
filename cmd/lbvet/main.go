// Command lbvet runs the module's project-specific static analyzers —
// the machine-checked form of the determinism contracts of DESIGN.md §9
// — over the given package patterns.
//
// Usage:
//
//	lbvet [-json] [-list] [patterns...]
//
// Patterns are go package patterns (default ./...), resolved by the go
// command, which lbvet runs once to list the packages and build the
// export data of their imports. Findings print as `file:line: message
// [analyzer]`; with -json they print as a JSON array. The exit status is
// 1 when findings exist, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"temperedlb/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "lbvet:", err)
		return 2
	}
	pkgs := loader.LoadAll()
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "lbvet: no packages match", strings.Join(patterns, " "))
		return 2
	}
	runner := &analysis.Runner{Analyzers: analyzers}
	diags := runner.Run(pkgs)

	// Report positions relative to the working directory for readable,
	// clickable output.
	wd, _ := os.Getwd()
	for i := range diags {
		if wd == "" {
			break
		}
		if rel, err := filepath.Rel(wd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if *asJSON {
		type finding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "lbvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// Command fsmoe-lint is the repository's static-analysis gate. It is
// built on the standard library alone (go/parser + go/types with the
// source importer) so it runs offline in CI with no module downloads.
//
// Usage:
//
//	fsmoe-lint [packages]
//
// Packages are ./... -style patterns or package directories relative to
// the module root; with no arguments ./... is checked. Exit status: 0
// clean, 1 findings, 2 load or usage error.
//
// Analyzers (see internal/lint):
//
//	poolcheck  — pooled tensors must reach Put or escape on every path;
//	             Put of a View/Slice/Reshape result is an error
//	kindcheck  — raw task-kind/event vocabulary strings are forbidden
//	             outside internal/sim/vocab.go
//
// Findings are suppressed by an explicit
//
//	//fsmoe:allow <analyzer>[,<analyzer>] <reason>
//
// comment on the flagged line or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fsmoe-lint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsmoe-lint: %v\n", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsmoe-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsmoe-lint: %v\n", err)
		os.Exit(2)
	}
	hardErr := false
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "fsmoe-lint: %s: %v\n", p.Path, te)
			hardErr = true
		}
	}
	if hardErr {
		os.Exit(2)
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fsmoe-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

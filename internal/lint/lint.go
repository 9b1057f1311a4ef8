// Package lint is fsmoe's project-specific static-analysis suite: the
// compile-time enforcement of the conventions the runtime can only catch
// late (or not at all). It is dependency-free by design — stdlib go/ast,
// go/parser and go/types only, no golang.org/x/tools — so it builds and
// runs offline, and cmd/fsmoe-lint can gate CI without network access.
//
// Two analyzers ship today:
//
//   - poolcheck: pooled-tensor ownership. Every tensor.Get/GetUninit
//     result must reach a tensor.Put or escape (return, field/element
//     store, call argument, closure capture) within its function, with no
//     early return that abandons a still-owned buffer; and tensor.Put of
//     a View/Slice/Reshape result is a static error — the compile-time
//     twin of the runtime tensor.SetPoolDebug guard.
//
//   - kindcheck: task-kind/event vocabulary. String literals equal to a
//     canonical sim.Kind*/sim.Event* value are forbidden everywhere
//     except internal/sim/vocab.go, where the vocabulary is declared.
//     A raw "AlltoAll" compiles fine and silently mis-aggregates every
//     breakdown keyed on the canonical constants; the analyzer turns it
//     into a build-time diagnostic.
//
// Findings can be suppressed with an explicit allowlist comment on the
// offending line or the line directly above it:
//
//	//fsmoe:allow kindcheck documenting the wire value itself
//
// The comment names one or more analyzers (comma-separated) and should
// state a reason. Allowlisting is deliberate and visible in review — the
// analyzers have no silent exceptions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named rule over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// Analyzers returns the full suite in presentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{PoolCheck, KindCheck}
}

// allowPrefix introduces an allowlist comment.
const allowPrefix = "//fsmoe:allow "

// allowedLines maps source line numbers to the analyzer names allowed on
// them for one file. A comment allows its own line and the line directly
// below it (comment-above-statement style).
func allowedLines(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	var out map[int]map[string]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			// First field is the analyzer list; anything after is the reason.
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			if out == nil {
				out = make(map[int]map[string]bool)
			}
			line := fset.Position(c.Pos()).Line
			for _, name := range strings.Split(fields[0], ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				for _, l := range [2]int{line, line + 1} {
					if out[l] == nil {
						out[l] = make(map[string]bool)
					}
					out[l][name] = true
				}
			}
		}
	}
	return out
}

// Run applies the analyzers to every package and returns the surviving
// (non-allowlisted) diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		// Allow tables are per file, keyed by the file name the positions
		// report.
		allow := make(map[string]map[int]map[string]bool)
		for i, f := range p.Files {
			allow[p.Filenames[i]] = allowedLines(p.Fset, f)
		}
		for _, a := range analyzers {
			for _, d := range a.Run(p) {
				if lines := allow[d.Pos.Filename]; lines != nil {
					if names := lines[d.Pos.Line]; names != nil && names[a.Name] {
						continue
					}
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

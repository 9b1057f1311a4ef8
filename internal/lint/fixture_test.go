package lint

// Golden-fixture driver: each package under testdata/src/ carries
// `// want `regexp`` comments naming the diagnostic its line must
// produce. The driver loads the fixture through the real loader, runs one
// analyzer through the real Run pipeline (so the allowlist applies
// exactly as in production), and requires a one-to-one match between
// produced and expected diagnostics.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the backquoted pattern of a want comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	for _, te := range p.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", name, te)
	}
	if t.Failed() {
		t.FailNow()
	}
	return p
}

// expectationsOf scans the fixture's comments for want patterns.
func expectationsOf(t *testing.T, p *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for i, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", p.Filenames[i], m[1], err)
				}
				out = append(out, &expectation{
					file: p.Filenames[i],
					line: p.Fset.Position(c.Pos()).Line,
					re:   re,
				})
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("fixture %s has no want expectations", p.Path)
	}
	return out
}

func checkFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	p := loadFixture(t, name)
	wants := expectationsOf(t, p)
	diags := Run([]*Package{p}, []*Analyzer{a})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				w.file, w.line, w.re)
		}
	}
}

func TestPoolCheckFixture(t *testing.T) { checkFixture(t, "poolbad", PoolCheck) }
func TestKindCheckFixture(t *testing.T) { checkFixture(t, "kindbad", KindCheck) }

// TestRepoIsLintClean is the self-test the CI gate mirrors: the whole
// module must load, type-check and produce zero findings under the full
// analyzer suite.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	var typeErrs []string
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			typeErrs = append(typeErrs, fmt.Sprintf("%s: %v", p.Path, te))
		}
	}
	if len(typeErrs) > 0 {
		t.Fatalf("type errors:\n%s", strings.Join(typeErrs, "\n"))
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

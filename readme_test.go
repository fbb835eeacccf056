package frostlab_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^frostlab_[a-z0-9_]+$`)

// registeredMetrics returns every metric name passed as the first
// argument of a call in the non-test Go files under the given roots:
// the registry constructors, the GaugeFunc/CounterFunc views and the
// packages' own counter helpers all take the name first.
func registeredMetrics(t *testing.T, roots ...string) map[string]string {
	t.Helper()
	names := make(map[string]string) // name -> file:line
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && metricName.MatchString(s) {
					names[s] = fset.Position(lit.Pos()).String()
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// TestReadmeMetricTable keeps README's metric reference and the code in
// step: every `frostlab_*` row names a metric some program registers, and
// every registered metric has a row.
func TestReadmeMetricTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	row := regexp.MustCompile("^\\| `(frostlab_[a-z0-9_]+)` \\|")
	for _, line := range strings.Split(string(readme), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			if documented[m[1]] {
				t.Errorf("README documents %s twice", m[1])
			}
			documented[m[1]] = true
		}
	}
	registered := registeredMetrics(t, "cmd", "internal", "examples")
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("found %d registered and %d documented metrics; the scan is broken", len(registered), len(documented))
	}
	var missing, stale []string
	for name, at := range registered {
		if !documented[name] {
			missing = append(missing, name+" (registered at "+at+")")
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("README's metric table has no row for %s", m)
	}
	for _, s := range stale {
		t.Errorf("README's metric table documents %s, which no program registers", s)
	}
}

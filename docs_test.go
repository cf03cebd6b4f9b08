package hypermine_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose references TestDocReferencesResolve
// keeps honest.
var docFiles = []string{"README.md", ".claude/skills/verify/SKILL.md"}

var (
	// docPath matches a repo path, optionally with {a,b} alternatives
	// or * globs, e.g. internal/{server,telemetry}/testdata/fuzz/.
	docPath = regexp.MustCompile(`(?:^|[\s` + "`" + `(])(?:\./)?((?:internal|cmd|examples|perfbench)/[A-Za-z0-9_.*{},/-]*)`)
	// docTest matches a test or benchmark name. It names a prefix when
	// a trailing … says so, as in TestHandlerAllocs…, or when it is a
	// -run or -bench pattern, as in -run TestSim.
	docTest = regexp.MustCompile(`(-run[ =]|-bench[ =]|['|])?\b((?:Test|Benchmark)[A-Z][A-Za-z0-9_]*)(…)?`)
	goTest  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)[A-Za-z0-9_]*)\(`)
)

// TestDocReferencesResolve fails when README.md or the verify skill
// names a repo path that does not exist, or a Test or Benchmark
// function that no _test.go file declares.
func TestDocReferencesResolve(t *testing.T) {
	var tests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, and the benchmark's build cache
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range goTest.FindAllSubmatch(src, -1) {
				tests = append(tests, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := func(name string, prefix bool) bool {
		for _, n := range tests {
			if n == name || prefix && strings.HasPrefix(n, name) {
				return true
			}
		}
		return false
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range docPath.FindAllStringSubmatch(text, -1) {
			p := strings.TrimRight(m[1], ".,")
			for _, alt := range expandBraces(p) {
				if hits, _ := filepath.Glob(strings.TrimSuffix(alt, "/")); len(hits) == 0 {
					t.Errorf("%s: path %s does not exist", doc, alt)
				}
			}
		}
		for _, m := range docTest.FindAllStringSubmatch(text, -1) {
			if !declared(m[2], m[1] != "" || m[3] != "") {
				t.Errorf("%s: no test or benchmark is named %s%s", doc, m[2], m[3])
			}
		}
	}
}

// expandBraces expands the first {a,b,...} group in p, recursively.
func expandBraces(p string) []string {
	i := strings.IndexByte(p, '{')
	j := strings.IndexByte(p, '}')
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expandBraces(p[:i]+alt+p[j+1:])...)
	}
	return out
}

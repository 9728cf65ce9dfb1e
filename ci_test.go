package sherlock

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryFuzzTargetRunsInCI fails when a fuzz target in this module has
// no `-fuzz '<Name>'` line for its package in the CI workflow, so a new
// target cannot go unrun. It also fails the other way round: when a CI
// line names a target its package does not define, since `go test -fuzz`
// then prints "no fuzz tests to fuzz" and passes having fuzzed nothing.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// The CI lines, as "<package> <target>" pairs.
	ciLine := regexp.MustCompile(`-fuzz '([^']*)'.*\s(\./\S*)`)
	inCI := map[string]bool{}
	for _, m := range ciLine.FindAllStringSubmatch(string(ci), -1) {
		inCI[m[2]+" "+m[1]] = true
	}
	if len(inCI) == 0 {
		t.Fatal("found no -fuzz lines in ci.yml")
	}

	// The targets, in the same form.
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	defined := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module has its own CI step
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path)) + "/"
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			defined[pkg+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("found no fuzz targets: is the test running from the module root?")
	}

	for _, target := range sortedKeys(defined) {
		if !inCI[target] {
			pkg, name, _ := strings.Cut(target, " ")
			t.Errorf("%s has no \"-fuzz '%s'\" line for %s in ci.yml", name, name, pkg)
		}
	}
	for _, line := range sortedKeys(inCI) {
		if !defined[line] {
			pkg, name, _ := strings.Cut(line, " ")
			t.Errorf("ci.yml fuzzes %q in %s, which defines no func %s", name, pkg, name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

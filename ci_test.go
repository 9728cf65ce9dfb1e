package sherlock

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryFuzzTargetRunsInCI fails when a fuzz target in this module has
// no `-fuzz '<Name>'` line for its package in the CI workflow, so a new
// target cannot go unrun.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(ci), "\n")
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	targets := 0
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
			targets++
			flag := "-fuzz '" + m[1] + "'"
			found := false
			for _, line := range lines {
				if strings.Contains(line, flag) && strings.Contains(line, pkg) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %s has no %q line for %s in ci.yml", path, m[1], flag, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets: is the test running from the module root?")
	}
}

package exper

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSections splits rendered output into its sections by their
// "=== name" marker lines.
func goldenSections(text string) map[string]string {
	out := map[string]string{}
	for _, part := range strings.Split("\n"+text, "\n=== ")[1:] {
		name, body, _ := strings.Cut(part, "\n")
		out[name] = body
	}
	return out
}

// TestExperimentsDocMatchesGolden checks every ```golden:NAME block of
// EXPERIMENTS.md against section NAME of the golden file, with the same
// wall-clock mask.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := goldenSections(string(golden))
	blocks := 0
	name, body := "", []string(nil)
	for i, line := range strings.Split(string(doc), "\n") {
		switch {
		case name == "":
			if n, ok := strings.CutPrefix(line, "```golden:"); ok {
				name, body = n, nil
			}
		case line == "```":
			blocks++
			want, ok := sections[name]
			if !ok {
				t.Errorf("EXPERIMENTS.md line %d: block names unknown section %q", i+1, name)
			} else if got := goldenSections(maskWallClock("=== " + name + "\n" + strings.Join(body, "\n") + "\n"))[name]; got != want {
				t.Errorf("EXPERIMENTS.md block golden:%s (ending line %d) differs from the golden:\n--- doc\n%s--- golden\n%s", name, i+1, got, want)
			}
			name = ""
		default:
			body = append(body, line)
		}
	}
	if name != "" {
		t.Errorf("EXPERIMENTS.md: block golden:%s is not closed", name)
	}
	if blocks == 0 {
		t.Error("EXPERIMENTS.md has no golden blocks")
	}
}

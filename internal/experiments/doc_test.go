package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	number     = regexp.MustCompile(`\d+(?:\.\d+)?`)
)

// TestExperimentsDocMatchesGoldens checks EXPERIMENTS.md against the
// experiment goldens: in every section whose heading names an experiment id,
// each number in a table's "this repo" column must appear as a number in
// testdata/<id>.golden, so a figure the code no longer produces cannot stay
// in the document. A "this repo" table under a heading that names no
// experiment fails too, since nothing could check it. No figure is exempt.
func TestExperimentsDocMatchesGoldens(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var id string
	var golden map[string]bool
	inTable, col, checked := false, -1, 0
	for n, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			id, golden = "", nil
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				raw, err := os.ReadFile(filepath.Join("testdata", m[1]+".golden"))
				if err != nil {
					continue
				}
				id, golden = m[1], map[string]bool{}
				for _, tok := range number.FindAllString(string(raw), -1) {
					golden[tok] = true
				}
				break
			}
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case !inTable:
			// A table's header row.
			inTable, col = true, slices.Index(cells(line), "this repo")
			if col >= 0 && id == "" {
				t.Errorf("EXPERIMENTS.md:%d: a \"this repo\" table under a heading that names no experiment", n+1)
			}
		case col >= 0:
			row := cells(line)
			if col >= len(row) {
				continue
			}
			for _, fig := range number.FindAllString(row[col], -1) {
				checked++
				if !golden[fig] {
					t.Errorf("EXPERIMENTS.md:%d: %s figure %s (row %q) is not in testdata/%s.golden", n+1, id, fig, row[0], id)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no \"this repo\" figure found in EXPERIMENTS.md")
	}
	t.Logf("%d figures checked", checked)
}

// cells splits a Markdown table row into its trimmed cells.
func cells(line string) []string {
	parts := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

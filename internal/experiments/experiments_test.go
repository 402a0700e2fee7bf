package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpca18/bxt/internal/stats"
)

// TestRegistryComplete verifies one experiment per paper artifact plus the
// ablation/extension set, in publication order.
func TestRegistryComplete(t *testing.T) {
	wantFirst := []string{"fig1", "fig2", "table1", "table2", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "headline"}
	all := All()
	if len(all) < len(wantFirst)+7 {
		t.Fatalf("registry has %d experiments, want ≥ %d", len(all), len(wantFirst)+7)
	}
	for i, id := range wantFirst {
		if all[i].ID != id {
			t.Fatalf("experiment %d is %q, want %q", i, all[i].ID, id)
		}
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q missing title or runner", e.ID)
		}
	}
	for _, id := range []string{"abl-select", "abl-zdrconst", "abl-stages",
		"abl-bdthreshold", "abl-adjacency", "abl-utilization", "ext-hbm"} {
		if !seen[id] {
			t.Fatalf("missing ablation %q", id)
		}
	}
}

// TestCheapExperimentsRun smoke-tests the analytic experiments end to end.
func TestCheapExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig1", "fig2", "table1", "table2"} {
		var buf bytes.Buffer
		if err := Run(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "paper") {
			t.Errorf("%s output carries no paper comparison:\n%s", id, buf.String())
		}
	}
	if err := Run("bogus", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestSuiteShape asserts the qualitative results the paper's figures hinge
// on, using the cached full-suite evaluation. This is the repository's
// statistical acceptance test.
func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite evaluation")
	}
	e := GPU()
	if len(e.Apps) != 187 {
		t.Fatalf("GPU evaluation covers %d apps, want 187", len(e.Apps))
	}
	mean := func(label string) float64 { return stats.Mean(e.OnesRatios(label)) }

	// Fig 11: 4B and 8B bases give large reductions, 2B does not.
	if m := mean(L4B); m > 0.80 || m < 0.55 {
		t.Errorf("4B ones ratio %.2f outside the paper's regime (~0.70)", m)
	}
	if m := mean(L2B); m < 0.85 {
		t.Errorf("2B ones ratio %.2f too good; the paper's is ~0.93", m)
	}
	// Fig 12: Universal beats every fixed base on average.
	univ := mean(LUniversal)
	for _, l := range []string{L2B, L4B, L8B} {
		if univ >= mean(l) {
			t.Errorf("Universal (%.2f) not better than %s (%.2f)", univ, l, mean(l))
		}
	}
	// Fig 15: ordering baseline > DBI4 > DBI2 > DBI1 > Universal >
	// hybrid4 > hybrid2 > hybrid1; BD between DBI1 and Universal-hybrids.
	order := []string{LDBI4, LDBI2, LDBI1, LUniversal, LUnivDBI4, LUnivDBI2, LUnivDBI1}
	prev := 1.0
	for _, l := range order {
		m := mean(l)
		if m >= prev {
			t.Errorf("fig15 ordering violated at %s: %.3f >= %.3f", l, m, prev)
		}
		prev = m
	}
	if bd := mean(LBD); bd >= mean(LDBI1) || bd <= mean(LUnivDBI1) {
		t.Errorf("BD-Encoding (%.2f) outside its paper position", bd)
	}
	// Fig 16: DBI-4B increases toggles; Universal decreases them.
	if m := stats.Mean(e.ToggleRatios(LDBI4)); m <= 1.0 {
		t.Errorf("4B DBI toggle ratio %.2f, want > 1 (metadata toggles)", m)
	}
	if m := stats.Mean(e.ToggleRatios(LUniversal)); m >= 1.0 {
		t.Errorf("Universal toggle ratio %.2f, want < 1", m)
	}
	// ZDR: strictly fewer apps regress with ZDR than without (Fig 14).
	incPlain, incZDR := 0, 0
	for i := range e.Apps {
		if e.Apps[i].OnesRatio(L4BNoZDR) > 1 {
			incPlain++
		}
		if e.Apps[i].OnesRatio(L4B) > 1 {
			incZDR++
		}
	}
	if incZDR >= incPlain {
		t.Errorf("ZDR did not reduce regressing apps: %d vs %d", incZDR, incPlain)
	}
}

// TestCPUSuiteShape asserts Fig 18's qualitative content.
func TestCPUSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite evaluation")
	}
	e := CPU()
	if len(e.Apps) != 28 {
		t.Fatalf("CPU evaluation covers %d apps, want 28", len(e.Apps))
	}
	ratios := e.OnesRatios(LUniversal)
	mean := stats.Mean(ratios)
	if mean < 0.75 || mean > 0.95 {
		t.Errorf("CPU mean ones ratio %.2f outside the paper's ~0.88 regime", mean)
	}
	improved := 0
	for _, r := range ratios {
		if r < 1 {
			improved++
		}
	}
	frac := float64(improved) / float64(len(ratios))
	if frac < 0.55 || frac > 0.95 {
		t.Errorf("%.0f%% of CPU apps improve; paper reports 68%%", frac*100)
	}
	// CPU reductions must be much weaker than GPU reductions (§VI-G).
	gpu := stats.Mean(GPU().OnesRatios(LUniversal))
	if mean <= gpu {
		t.Errorf("CPU ratio %.2f not weaker than GPU ratio %.2f", mean, gpu)
	}
}

// update rewrites the experiment goldens from the current code:
// go test -run TestAllExperimentsRun ./internal/experiments/ -update
var update = flag.Bool("update", false, "rewrite testdata/<id>.golden from the current experiment output")

// TestAllExperimentsRun executes every registered experiment end to end —
// the same code paths cmd/bxtbench exercises — and compares each one's
// output byte for byte with testdata/<id>.golden, so every figure, table,
// ablation and extension keeps the numbers it reproduces.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(e.ID, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s produced suspiciously little output:\n%s", e.ID, buf.String())
			}
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output differs from %s (regenerate with -update if the change is intended):\n%s",
					e.ID, path, firstDiff(want, buf.Bytes()))
			}
		})
	}
}

// firstDiff shows the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d\nwant %q\ngot  %q", i+1, w, g)
		}
	}
	return "no line differs"
}

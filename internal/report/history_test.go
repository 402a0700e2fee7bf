package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestAppendJSONKeepsForeignEntries appends to a history holding an entry
// of a kind the appender does not model, with keys of its own: the entry
// must survive unchanged, followed by the new one.
func TestAppendJSONKeepsForeignEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	foreign := `[{"time": "t0", "kind": "benchpairs", "rows": [{"metric": "setup_s", "wins": 10}], "note": "kept"}]`
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, struct {
		Time string `json:"time"`
	}{"t1"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(foreign), &want); err != nil {
		t.Fatal(err)
	}
	want = append(want, map[string]any{"time": "t1"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("history after append:\n%s", raw)
	}

	// A file that is not a JSON array is refused and left as it was.
	if err := os.WriteFile(path, []byte(`{"time": "t0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, "x"); err == nil {
		t.Fatal("appended to a JSON object")
	}
	if raw, _ := os.ReadFile(path); string(raw) != `{"time": "t0"}` {
		t.Fatalf("refused file rewritten: %s", raw)
	}
}

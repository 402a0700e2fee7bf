package report

import (
	"encoding/json"
	"fmt"
	"os"
)

// AppendJSON appends entry to the JSON array in the file at path, creating
// the file on first use. The elements already there are carried over as raw
// JSON, so entries of any shape survive, whatever their keys or kind. A
// file that is not a JSON array is an error rather than silently
// overwritten history.
func AppendJSON(path string, entry any) error {
	var entries []json.RawMessage
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &entries); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	next, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(append(entries, next), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeCellRow feeds DecodeCellRow the untrusted bytes a journal or a
// cluster worker hands it. Decoding must never panic, and any row it accepts
// must survive a re-encode and decode unchanged. The seed corpus under
// testdata/fuzz/FuzzDecodeCellRow holds one quick-mode cell row per
// experiment.
func FuzzDecodeCellRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, experiment string, data []byte) {
		row, err := DecodeCellRow(experiment, data)
		if err != nil {
			return
		}
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatalf("%s: re-encode %#v: %v", experiment, row, err)
		}
		again, err := DecodeCellRow(experiment, b)
		if err != nil {
			t.Fatalf("%s: decode of re-encoded %s: %v", experiment, b, err)
		}
		if !reflect.DeepEqual(row, again) {
			t.Fatalf("%s: round trip changed the row:\n%#v\n%#v", experiment, row, again)
		}
	})
}

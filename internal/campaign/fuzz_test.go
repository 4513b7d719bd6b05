package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to ParseSpec, the decoder behind the
// untrusted body of POST /v1/campaigns. It must never panic, and a document
// it accepts must re-encode to a document it accepts again, with the same
// encoding: validation is a fixed point, not a one-shot filter.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			if s != nil {
				t.Fatalf("ParseSpec returned a spec alongside error %v", err)
			}
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		again, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshal re-parsed spec: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", enc, enc2)
		}
	})
}

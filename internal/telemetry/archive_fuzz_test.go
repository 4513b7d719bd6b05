package telemetry

import (
	"bytes"
	"testing"
)

// The archive decoders read files under a server's data directory, which a
// restart or an operator may have left truncated or edited. Both targets
// demand no panic, and that whatever a decoder accepts re-encodes into a
// form it reads back unchanged. The seed corpora under testdata/fuzz/ hold
// the archives of a quick fig45 job (its epoch spans and epoch log cut to a
// few records).

func FuzzDecodeSpansJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeSpansJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteSpansJSONL(&once, spans); err != nil {
			t.Fatalf("re-encode %+v: %v", spans, err)
		}
		again, err := DecodeSpansJSONL(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded %s: %v", once.Bytes(), err)
		}
		if err := WriteSpansJSONL(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip changed the spans:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

func FuzzDecodeEpochLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := DecodeEpochLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteRuns(&once, log.Runs()); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeEpochLog(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded %s: %v", once.Bytes(), err)
		}
		if again.Total() != log.Total() {
			t.Fatalf("round trip changed the record count: %d -> %d", log.Total(), again.Total())
		}
		if err := WriteRuns(&twice, again.Runs()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip changed the log:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

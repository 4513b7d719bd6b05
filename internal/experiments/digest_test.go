package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/row_digests.json from the current rows")

const digestFile = "testdata/row_digests.json"

// TestRowDigests pins the science: a SHA-256 per experiment over its quick
// rows' JSON must match the committed digest, so any change in behaviour is
// a deliberate, documented update (go test -run TestRowDigests
// -update-digests). Go fuses multiply-adds on arm64, so the digests only
// hold on amd64.
func TestRowDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("row digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	wide, err := quickRowsWide()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for id, b := range wide.rows {
		sum := sha256.Sum256(b)
		got[id] = hex.EncodeToString(sum[:])
	}
	if *updateDigests {
		b, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, id := range ExperimentNames() {
		if got[id] != want[id] {
			t.Errorf("%s: quick rows digest %s, committed %s", id, got[id], want[id])
		}
	}
	if len(want) != len(got) {
		t.Errorf("committed digests cover %d experiments, rows %d", len(want), len(got))
	}
}

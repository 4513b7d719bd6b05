package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/row_digest.txt from the current rows")

const digestFile = "testdata/row_digest.txt"

// TestRowDigests pins the tournament of TestTournamentDeterminism: the
// SHA-256 of its rows' JSON must match the committed digest (update with
// go test -run TestRowDigests -update-digests). Go fuses multiply-adds on
// arm64, so the digest only holds on amd64.
func TestRowDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("row digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	b, err := json.Marshal(runTournament(t, []byte(testDoc)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("tournament: rows digest %s, committed %s", got, w)
	}
}

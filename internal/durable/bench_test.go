package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"path/filepath"
	"testing"
)

// discardLogs silences the default slog logger until the benchmark ends, so
// INFO lines cannot split the result line that cmd/benchjson parses.
func discardLogs(b *testing.B) {
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	b.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(out)
		log.SetFlags(flags)
	})
}

// benchPayload is a realistic cell record: ~200 bytes of JSON.
var benchPayload = []byte(`{"kind":"cell","job":"job-000123","cell":4,"row":{"App":"tachyon","Policy":"proposed","AvgTempC":63.2,"PeakTempC":78.9,"CyclingMTTF":11.4,"AgingMTTF":9.7,"CombinedMTTF":5.2,"ExecTimeS":412}}`)

func BenchmarkWALAppend(b *testing.B) {
	for _, sync := range []bool{false, true} {
		name := "nosync"
		if sync {
			name = "fsync"
		}
		b.Run(name, func(b *testing.B) {
			w, _, err := OpenWAL(filepath.Join(b.TempDir(), "wal.log"), sync)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(benchPayload) + frameHeaderSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(benchPayload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover measures a cold open replaying a 1k-job journal (each
// job: submit, four cells, finish — 6k records).
func BenchmarkRecover(b *testing.B) {
	discardLogs(b)
	dir := b.TempDir()
	j, err := OpenJournal(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	row, _ := json.Marshal(map[string]any{"AvgTempC": 63.2, "CombinedMTTF": 5.2})
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		if err := j.Append(Record{Kind: KindSubmit, Job: id, Spec: testSpec, TotalCells: 4}); err != nil {
			b.Fatal(err)
		}
		for c := 0; c < 4; c++ {
			if err := j.Append(Record{Kind: KindCell, Job: id, Cell: c, Row: row}); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Append(Record{Kind: KindFinish, Job: id, State: "done", WallClockS: 1}); err != nil {
			b.Fatal(err)
		}
	}
	size := j.WALSize()
	j.Close()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := OpenJournal(dir, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(j.Recovered().Jobs); got != 1000 {
			b.Fatalf("recovered %d jobs", got)
		}
		j.Close()
	}
}

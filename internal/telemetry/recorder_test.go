package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestRecorderKeepsNewestOnWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(DecisionEvent{Epoch: i, Kind: EventDecision})
	}
	evs := r.Events()
	if len(evs) != 4 || r.Len() != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Epoch != 7+i {
			t.Errorf("event %d has epoch %d, want %d (newest 4, oldest first)", i, ev.Epoch, 7+i)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
}

func TestRecorderBelowCapacity(t *testing.T) {
	r := NewRecorder(8)
	r.Record(DecisionEvent{Epoch: 1})
	r.Record(DecisionEvent{Epoch: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Epoch != 1 || evs[1].Epoch != 2 {
		t.Errorf("events = %+v", evs)
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", r.Dropped())
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i <= DefaultRecorderCapacity; i++ {
		r.Record(DecisionEvent{Epoch: i + 1})
	}
	if r.Len() != DefaultRecorderCapacity || r.Dropped() != 1 {
		t.Errorf("len = %d, dropped = %d, want %d and 1", r.Len(), r.Dropped(), DefaultRecorderCapacity)
	}
}

func TestRecorderJSONL(t *testing.T) {
	r := NewRecorder(4)
	// A NaN reward (first epoch has no previous action) must not break the
	// JSON encoding.
	r.Record(DecisionEvent{Epoch: 1, Reward: math.NaN(), Kind: EventDecision, Workload: "mpeg_dec"})
	r.Record(DecisionEvent{Epoch: 2, Reward: 0.5, Kind: EventQReset, SwitchDetected: true})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []DecisionEvent
	for sc.Scan() {
		var ev DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Reward != 0 {
		t.Errorf("NaN reward should serialize as 0, got %g", lines[0].Reward)
	}
	if lines[1].Kind != EventQReset || !lines[1].SwitchDetected {
		t.Errorf("second line = %+v", lines[1])
	}
}

// TestRecorderConcurrent exercises parallel writers against a reader, as a
// job's cells record while the events endpoint drains. Run under -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(DecisionEvent{Epoch: i})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if n := len(r.Events()); n > 64 {
				t.Errorf("recorder exceeded capacity: %d", n)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != 64 {
		t.Errorf("final length = %d, want 64", r.Len())
	}
	if r.Dropped() != 4*1000-64 {
		t.Errorf("dropped = %d, want %d", r.Dropped(), 4*1000-64)
	}
}

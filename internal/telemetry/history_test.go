package telemetry_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"macc/internal/telemetry"
)

func TestHistoryDeltasAndRing(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := telemetry.NewHistory(reg, 3)

	reg.Counter("x").Add(5)
	first := h.Record()
	if first.Seq != 1 || len(first.CounterDeltas) != 0 {
		t.Errorf("first sample = %+v, want seq 1 and no deltas", first)
	}
	reg.Counter("x").Add(7)
	second := h.Record()
	if second.CounterDeltas["x"] != 7 {
		t.Errorf("delta = %v, want x=7", second.CounterDeltas)
	}
	if second.CounterRates["x"] <= 0 {
		t.Errorf("rate = %v, want positive", second.CounterRates)
	}
	// No movement: delta map stays empty.
	third := h.Record()
	if len(third.CounterDeltas) != 0 {
		t.Errorf("idle sample has deltas: %v", third.CounterDeltas)
	}

	// Ring eviction: capacity 3, a fourth sample evicts the first, and the
	// delta chain survives eviction.
	reg.Counter("x").Add(1)
	h.Record()
	samples := h.Samples()
	if len(samples) != 3 {
		t.Fatalf("%d samples retained, want 3", len(samples))
	}
	if samples[0].Seq != 2 || samples[2].Seq != 4 {
		t.Errorf("ring kept seqs %d..%d, want 2..4", samples[0].Seq, samples[2].Seq)
	}
	if samples[2].CounterDeltas["x"] != 1 {
		t.Errorf("post-eviction delta = %v, want x=1", samples[2].CounterDeltas)
	}
}

func TestHistoryJSONAndHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := telemetry.NewHistory(reg, 0)
	reg.Counter("c").Add(1)
	h.Record()
	h.Record()

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Schema   string            `json:"schema"`
		Capacity int               `json:"capacity"`
		Samples  []json.RawMessage `json:"samples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Schema != telemetry.HistorySchema {
		t.Errorf("schema = %q", payload.Schema)
	}
	if payload.Capacity != telemetry.DefaultHistoryCap {
		t.Errorf("capacity = %d", payload.Capacity)
	}
	if len(payload.Samples) != 2 {
		t.Errorf("%d samples, want 2", len(payload.Samples))
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics/history", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), telemetry.HistorySchema) {
		t.Errorf("HTTP serve: code %d body %q", rr.Code, rr.Body.String())
	}
}

package faultinject

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseServiceSpec(t *testing.T) {
	spec, err := ParseServiceSpec("drop=0.1,delay=0.25,corrupt=0.05,maxdelay=75ms,diskfull=0.2,crashwrite=0.3,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := ServiceSpec{Drop: 0.1, Delay: 0.25, Corrupt: 0.05,
		MaxDelay: 75 * time.Millisecond, DiskFull: 0.2, CrashWrite: 0.3, Seed: 42}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if !spec.Active() {
		t.Error("spec not Active")
	}

	empty, err := ParseServiceSpec("")
	if err != nil || empty.Active() {
		t.Errorf("empty spec: %+v err=%v, want inactive no-op", empty, err)
	}
	for _, bad := range []string{"drop", "drop=2", "drop=-1", "maxdelay=abc", "nonsense=1"} {
		if _, err := ParseServiceSpec(bad); err == nil {
			t.Errorf("ParseServiceSpec(%q) accepted", bad)
		}
	}
}

// TestWrapHandlerCorrupts: with corrupt=1 every response body differs from
// the handler's answer but keeps its status code.
func TestWrapHandlerCorrupts(t *testing.T) {
	sb := NewServiceSaboteur(ServiceSpec{Corrupt: 1, Seed: 7})
	payload := strings.Repeat("the quick brown fox ", 10)
	h := sb.WrapHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, payload)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Errorf("status = %d, want teapot preserved", resp.StatusCode)
	}
	if bytes.Equal(body, []byte(payload)) {
		t.Error("corrupt=1 left the body intact")
	}
	if len(body) != len(payload) {
		t.Errorf("corruption changed the length: %d vs %d", len(body), len(payload))
	}
	_, _, corrupted, _, _ := sb.Counts()
	if corrupted != 1 {
		t.Errorf("corrupted = %d, want 1", corrupted)
	}
}

// TestWrapHandlerDrops: with drop=1 the client sees a transport error, not
// a response.
func TestWrapHandlerDrops(t *testing.T) {
	sb := NewServiceSaboteur(ServiceSpec{Drop: 1})
	ts := httptest.NewServer(sb.WrapHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "never delivered")
	})))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("dropped request produced a response: %d %q", resp.StatusCode, body)
	}
	dropped, _, _, _, _ := sb.Counts()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

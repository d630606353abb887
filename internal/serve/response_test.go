package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// getStatus GETs a job through the handler and returns the raw body,
// checking that it carries its length and still decodes into Status.
func getStatus(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", id, rec.Code, rec.Body)
	}
	body := rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("GET %s: Content-Length %q for a %d-byte body", id, cl, len(body))
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("GET %s: body does not decode into Status: %v", id, err)
	}
	if st.ID != id {
		t.Errorf("GET %s: decoded id %q", id, st.ID)
	}
	return body
}

// rawField returns the bytes of one top-level field of a JSON object
// exactly as they appear in it.
func rawField(t *testing.T, body []byte, name string) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	return fields[name]
}

// TestStatusCarriesCanonicalBytes: a job response carries its report
// bytes verbatim — a computed job's result is j.Result(), a report-store
// hit's is the stored entry, and an adaptive job's partial is the
// analytic report it holds — so a client may hash or compare them.
func TestStatusCarriesCanonicalBytes(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	computed, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}
	waitDone(t, computed)
	want := computed.Result()
	if got := rawField(t, getStatus(t, s, computed.ID), "result"); !bytes.Equal(got, want) {
		t.Errorf("computed job: result is\n%s\nwant j.Result()\n%s", got, want)
	}

	hit, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusOK || !hit.Status(false).Cached {
		t.Fatalf("resubmit: status=%d err=%v, want a report hit", status, err)
	}
	stored, ok := s.points.Get(hit.Key)
	if !ok {
		t.Fatal("report not in the store")
	}
	if got := rawField(t, getStatus(t, s, hit.ID), "result"); !bytes.Equal(got, stored) {
		t.Errorf("report hit: result is\n%s\nwant the store entry\n%s", got, stored)
	}
}

// TestPartialCarriesCanonicalBytes: before an adaptive job completes,
// both its POST and its GET carry the analytic partial verbatim.
func TestPartialCarriesCanonicalBytes(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the job stays queued with its partial attached.
	defer s.Shutdown(context.Background())

	body, _ := json.Marshal(adaptiveRequest())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST: status %d: %s", rec.Code, rec.Body)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s unknown", st.ID)
	}
	j.mu.Lock()
	want := j.partial
	j.mu.Unlock()
	if len(want) == 0 {
		t.Fatal("adaptive job holds no partial")
	}
	if got := rawField(t, rec.Body.Bytes(), "partial"); !bytes.Equal(got, want) {
		t.Errorf("POST: partial is\n%s\nwant\n%s", got, want)
	}
	if got := rawField(t, getStatus(t, s, j.ID), "partial"); !bytes.Equal(got, want) {
		t.Errorf("GET: partial is\n%s\nwant\n%s", got, want)
	}
}

// TestWriteJSONUnencodable: a value encoding/json rejects answers 500
// with a JSON error body, not a 200 with a truncated one.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"ch": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("body %q is not a JSON error: %v", rec.Body, err)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"digitaltraces"
)

// FuzzServerBodies sends fuzzed POST bodies to /topk, /topk/batch and
// /visits of a server over a tiny DB, a fresh one per input so a write
// cannot leak into the next: no body may panic a handler, an accepted one is
// answered with JSON, and every refusal is a 4xx whose JSON names the fault
// (seed corpus under testdata/fuzz: a valid and a refused body of each kind).
func FuzzServerBodies(f *testing.F) {
	paths := []string{"/topk", "/topk/batch", "/visits"}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 2, Levels: 2, Entities: 6, Days: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, paths[int(path)%len(paths)], bytes.NewReader(body))
		New(db, WithMaxK(20), WithMaxBatch(8)).ServeHTTP(rec, req)
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s %q: status %d with a body that is no JSON object: %q", req.URL.Path, body, rec.Code, rec.Body.Bytes())
		}
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			if reply.Error == "" {
				t.Fatalf("%s %q: refused with %d and no message: %q", req.URL.Path, body, rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("%s %q: status %d: %q", req.URL.Path, body, rec.Code, rec.Body.Bytes())
		}
	})
}

package serve_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"indra"
	"indra/internal/cluster"
	"indra/internal/obs"
	"indra/internal/serve"
)

// The front's request contract holds for both roles: each test here
// runs once against a worker (serve.New over a stub Runner) and once
// against a router (cluster.New over a stub member), and checks what
// reached the backend behind the front.

// seen records the keys a front's backend was asked to answer.
type seen struct {
	mu   sync.Mutex
	keys []string
}

func (s *seen) add(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys = append(s.keys, key)
}

func (s *seen) sorted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := slices.Clone(s.keys)
	slices.Sort(keys)
	return keys
}

// stubMember is a cluster member that answers every cell and records
// the keys forwarded to it.
type stubMember struct{ seen *seen }

func (stubMember) ID() string { return "stub" }

func (m stubMember) Run(_ context.Context, key indra.CellKey, _ time.Duration) (serve.Cell, error) {
	m.seen.add(key.String())
	return serve.Cell{Key: key.String(), Output: "ok", Status: http.StatusOK}, nil
}

func (stubMember) Health(context.Context) error { return nil }

type front interface {
	Handler() http.Handler
	Drain(context.Context) (obs.Snapshot, error)
}

var fronts = []struct {
	name  string
	start func(t *testing.T, limits serve.Limits, s *seen) front
}{
	{"worker", func(_ *testing.T, limits serve.Limits, s *seen) front {
		return serve.New(serve.Config{
			Workers: 1, QueueDepth: 1, Limits: limits,
			Runner: func(k indra.CellKey) (string, error) {
				s.add(k.String())
				return "ok", nil
			},
		})
	}},
	{"router", func(t *testing.T, limits serve.Limits, s *seen) front {
		r, err := cluster.New(cluster.Config{ProbeInterval: time.Hour, Limits: limits},
			[]cluster.Worker{stubMember{seen: s}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}},
	// A router over an in-process worker: the member answers through
	// the worker's ExecuteCell, the path its handlers take after parsing.
	{"router-local", func(t *testing.T, limits serve.Limits, s *seen) front {
		srv := serve.New(serve.Config{
			Workers: 1, QueueDepth: 1, Limits: limits,
			Runner: func(k indra.CellKey) (string, error) {
				s.add(k.String())
				return "ok", nil
			},
		})
		r, err := cluster.New(cluster.Config{ProbeInterval: time.Hour, Limits: limits},
			[]cluster.Worker{cluster.NewLocalWorker("local-0", srv)})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}},
}

func post(t *testing.T, ts *httptest.Server, path, body string) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func drain(t *testing.T, f front) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRequestValidation: malformed keys, unknown experiments,
// over-limit cells and batches, any cell request to a draining front,
// and an attempt to install a result (no front has such a route) are
// rejected at the front; only the valid cells reach the backend.
func TestRequestValidation(t *testing.T) {
	limits := serve.Limits{MaxRequests: 8, MaxScale: 2, MaxBatch: 2}
	cases := []struct {
		name string
		post string
		body string
		want int
	}{
		{"malformed key", "/v1/cell", `{"key":"fig9/nope"}`, http.StatusBadRequest},
		{"non-positive requests", "/v1/cell", `{"key":"fig9/req=0/scale=1/seed=1"}`, http.StatusBadRequest},
		{"bad id charset", "/v1/cell", `{"key":"FIG9/req=1"}`, http.StatusBadRequest},
		{"unknown experiment", "/v1/cell", `{"key":"fig99/req=1/scale=1/seed=1"}`, http.StatusNotFound},
		{"requests above cap", "/v1/cell", `{"key":"fig9/req=9999/scale=1/seed=1"}`, http.StatusBadRequest},
		{"scale above cap", "/v1/cell", `{"key":"fig9/req=1/scale=9/seed=1"}`, http.StatusBadRequest},
		{"missing key and experiment", "/v1/cell", `{}`, http.StatusBadRequest},
		{"not json", "/v1/cell", `not json`, http.StatusBadRequest},
		{"experiment fields", "/v1/cell", `{"experiment":"table4","requests":1}`, http.StatusOK},
		{"empty batch", "/v1/cells", `{"cells":[]}`, http.StatusBadRequest},
		{"oversized batch", "/v1/cells", `{"cells":["fig9","fig9","fig9"]}`, http.StatusBadRequest},
		{"batch bad member", "/v1/cells", `{"cells":["fig99/req=1"]}`, http.StatusNotFound},
		{"cache fill", "/v1/fill", `{"key":"fig9/req=1/scale=1/seed=1","output":"pwned\n"}`, http.StatusNotFound},
	}
	for _, fc := range fronts {
		t.Run(fc.name, func(t *testing.T) {
			var s seen
			f := fc.start(t, limits, &s)
			ts := httptest.NewServer(f.Handler())
			defer ts.Close()

			for _, tc := range cases {
				if got := post(t, ts, tc.post, tc.body); got != tc.want {
					t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
				}
			}
			// GET variant: canonical key in the query string.
			resp, err := ts.Client().Get(ts.URL + "/v1/cell?key=fig9/req=1/scale=1/seed=1")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET /v1/cell: %d", resp.StatusCode)
			}

			drain(t, f)
			if got := post(t, ts, "/v1/cell", `{"key":"fig9/req=1/scale=1/seed=2"}`); got != http.StatusServiceUnavailable {
				t.Errorf("cell while draining: status %d, want 503", got)
			}
			if got := post(t, ts, "/v1/cells", `{"cells":["fig9/req=1/scale=1/seed=3"]}`); got != http.StatusServiceUnavailable {
				t.Errorf("batch while draining: status %d, want 503", got)
			}

			want := []string{"fig9/req=1/scale=1/seed=1", "table4/req=1/scale=1/seed=1"}
			if got := s.sorted(); !slices.Equal(got, want) {
				t.Errorf("backend saw %q, want only the valid cells %q", got, want)
			}
		})
	}
}

// TestBodyLimit: a request body over the 1 MiB cap is answered 413
// before it is buffered, and never reaches the backend.
func TestBodyLimit(t *testing.T) {
	huge := strings.Repeat("x", 1<<20)
	for _, fc := range fronts {
		t.Run(fc.name, func(t *testing.T) {
			var s seen
			f := fc.start(t, serve.Limits{}, &s)
			defer drain(t, f)
			ts := httptest.NewServer(f.Handler())
			defer ts.Close()

			for path, body := range map[string]string{
				"/v1/cell":  `{"key":"fig9/req=1/scale=1/seed=1","pad":"` + huge + `"}`,
				"/v1/cells": `{"cells":["fig9/req=1/scale=1/seed=1","` + huge + `"]}`,
			} {
				if got := post(t, ts, path, body); got != http.StatusRequestEntityTooLarge {
					t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(body), got)
				}
			}
			if got := s.sorted(); len(got) != 0 {
				t.Errorf("backend saw %q from oversized requests", got)
			}
		})
	}
}

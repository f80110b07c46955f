package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// testSet builds a Set with a little of everything registered so every
// endpoint has content to serve.
func testSet(t *testing.T) *Set {
	t.Helper()
	s := New(Options{})
	c := s.Registry.NewCounter("http_test_ops_total", "ops")
	c.Add(7)
	h := s.Registry.NewHistogram("http_test_lat_ns", "latency", Log2Bounds(1024, 1<<20))
	h.Observe(4096)
	return s
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestHandlerEndpoints(t *testing.T) {
	h := Handler(testSet(t))
	cases := []struct {
		path        string
		contentType string
		contains    string
	}{
		{"/", "", "/metrics"},
		{"/metrics", "text/plain; version=0.0.4", "http_test_ops_total 7"},
		{"/debug/pprof/", "", "profiles"},
	}
	for _, c := range cases {
		rec := get(t, h, c.path)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", c.path, rec.Code)
			continue
		}
		if c.contentType != "" {
			if got := rec.Header().Get("Content-Type"); got != c.contentType {
				t.Errorf("GET %s: Content-Type %q, want %q", c.path, got, c.contentType)
			}
		}
		if c.contains != "" && !strings.Contains(rec.Body.String(), c.contains) {
			t.Errorf("GET %s: body missing %q:\n%s", c.path, c.contains, rec.Body.String())
		}
	}
}

// TestHandlerUnknownPath: an unmounted path 404s, the simulator-only
// routes included — they have data only where a caller mounts them —
// and the index names none of them.
func TestHandlerUnknownPath(t *testing.T) {
	h := Handler(testSet(t))
	index := get(t, h, "/").Body.String()
	for _, path := range []string{"/nope", "/events.jsonl", "/series.jsonl", "/series.csv"} {
		if rec := get(t, h, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, rec.Code)
		}
		if strings.Contains(index, path) {
			t.Errorf("index lists unmounted %s:\n%s", path, index)
		}
	}
}

func TestHandlerWithExtraRoutes(t *testing.T) {
	extra := map[string]http.Handler{
		"/debug/trace": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, `{"id":1}`+"\n")
		}),
	}
	h := HandlerWith(testSet(t), extra)
	rec := get(t, h, "/debug/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/trace: status %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"id":1`) {
		t.Errorf("extra route body = %q", rec.Body.String())
	}
	// Built-ins still reachable alongside the extra route, which the
	// index lists.
	if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("GET /metrics with extras: status %d", rec.Code)
	}
	if index := get(t, h, "/").Body.String(); !strings.Contains(index, "/debug/trace\n") {
		t.Errorf("index does not list the extra route:\n%s", index)
	}
}

// TestHandlerConcurrentScrape hammers /metrics while instruments are
// being updated; meaningful under -race.
func TestHandlerConcurrentScrape(t *testing.T) {
	s := testSet(t)
	h := Handler(s)
	c := s.Registry.NewCounter("http_test_churn_total", "churn")
	hist := s.Registry.NewHistogram("http_test_churn_ns", "churn", Log2Bounds(1024, 1<<20))
	stop := make(chan struct{})
	mutatorDone := make(chan struct{})
	go func() {
		defer close(mutatorDone)
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				hist.Observe(2048)
			}
		}
	}()
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK {
					t.Errorf("scrape: status %d", rec.Code)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				get(t, h, "/")
				get(t, h, "/debug/pprof/")
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	<-mutatorDone
}

func TestServeAndShutdown(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", testSet(t), map[string]http.Handler{
		"/extra": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "ok")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/extra"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, body %q", path, resp.StatusCode, body)
		}
	}
}

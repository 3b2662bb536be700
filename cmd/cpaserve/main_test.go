package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"cpa/internal/cluster"
	"cpa/internal/serve"
)

// TestPprofOnItsOwnListener pins where profiles are served: the -pprof
// listener's handler (http.DefaultServeMux) answers /debug/pprof/heap, and
// neither daemon API (standalone or cluster node) does.
func TestPprofOnItsOwnListener(t *testing.T) {
	get := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/heap", nil))
		return rec
	}
	if rec := get(http.DefaultServeMux); rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("profiling handler: /debug/pprof/heap status %d, %d bytes", rec.Code, rec.Body.Len())
	}

	reg, err := serve.Open(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	node, err := cluster.NewNode("a", t.TempDir(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for name, h := range map[string]http.Handler{"standalone": serve.NewServer(reg), "cluster node": node} {
		if rec := get(h); rec.Code != http.StatusNotFound {
			t.Fatalf("%s API: /debug/pprof/heap status %d, want 404", name, rec.Code)
		}
	}
}

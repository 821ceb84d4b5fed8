package gateway

// Cluster test rig: real gateways and real sppd Servers wired over
// live httptest listeners, exactly the topology `make cluster`
// exercises from the shell — the only stubbing is the RunFunc where a
// test doesn't need paper-scale output. These tests import sim-core
// packages freely; simlint classifies the gateway by its non-test
// sources only, so the production package stays sim-independent.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/load"
	"spp1000/internal/machine"
	"spp1000/internal/service"
)

// fakeClock is a mutex-guarded manual clock for driving TTL evictions
// deterministically (handlers read it concurrently under -race).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestGateway wires a Gateway to a live HTTP listener with the real
// SubmitKey (the same derivation every backend uses).
func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.SubmitKey == nil {
		cfg.SubmitKey = service.SubmitKey
	}
	g := New(cfg)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// testBackend is one in-process sppd joined to a gateway.
type testBackend struct {
	id   string
	srv  *service.Server
	ts   *httptest.Server
	runs atomic.Int64 // fresh executions of this backend's RunFunc
}

// kill simulates the backend dying: its listener closes, so the next
// gateway forward gets a connection error and evicts it.
func (b *testBackend) kill() { b.ts.CloseClientConnections(); b.ts.Close() }

// startBackend boots an in-process sppd wired the way `sppd -join`
// wires a real one — ID stamped into views, peer fetches through the
// gateway — and registers it. run may be nil for the real DefaultRun.
func startBackend(t *testing.T, g *Gateway, gwURL, id string, run service.RunFunc) *testBackend {
	t.Helper()
	b := &testBackend{id: id}
	if run == nil {
		run = service.DefaultRun
	}
	counted := func(ctx context.Context, env *machine.Env, spec experiments.Spec) (string, error) {
		b.runs.Add(1)
		return run(ctx, env, spec)
	}
	b.srv = service.New(service.Config{
		ID:        id,
		Run:       counted,
		PeerFetch: service.PeerFetchVia(gwURL, id),
	})
	b.ts = httptest.NewServer(b.srv.Handler())
	t.Cleanup(func() {
		b.ts.Close() // idempotent: kill() may have closed it already
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.srv.Shutdown(ctx)
	})
	g.Register(id, b.ts.URL)
	return b
}

// newSoloServer serves a standalone (non-clustered) daemon — the
// reference a sharded sweep must match byte for byte.
func newSoloServer(t *testing.T, s *service.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts
}

// decodeViews parses a job-list response body.
func decodeViews(t *testing.T, r io.Reader) []jobView {
	t.Helper()
	var views []jobView
	if err := json.NewDecoder(r).Decode(&views); err != nil {
		t.Fatal(err)
	}
	return views
}

// jobView is the subset of sppd's job view the cluster tests assert on.
type jobView struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Cached  bool   `json:"cached"`
	Backend string `json:"backend"`
	Error   string `json:"error"`
}

// seedBody builds a submit body whose content address is pinned by the
// seed — the cluster tests sweep seeds to scatter keys over the ring.
func seedBody(seed int) string {
	return fmt.Sprintf(`{"experiments":["tab1"],"options":{"seed":%d}}`, seed)
}

// seedKey derives the content address the gateway will route seedBody
// by (the same function the gateway itself is configured with).
func seedKey(t *testing.T, seed int) string {
	t.Helper()
	key, err := service.SubmitKey([]byte(seedBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// gwSubmit posts one job body to a gateway (or daemon) base URL.
func gwSubmit(t *testing.T, baseURL, body string) (jobView, *http.Response) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v jobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("bad submit response %q: %v", data, err)
		}
	}
	return v, resp
}

// gwWait polls a job through the gateway until it reaches want.
func gwWait(t *testing.T, baseURL, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobView{}
}

// gwResult fetches a job's result body through the gateway.
func gwResult(t *testing.T, baseURL, id string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data), resp
}

// gwMetrics scrapes and parses a /metrics endpoint into name → value,
// keeping full metric names (sppgw_… and sppgw_backend_… intact) via
// the load harness's shared parser.
func gwMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	m, err := load.Scrape(nil, baseURL, "")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// backendViews fetches the gateway's live-membership endpoint.
func backendViews(t *testing.T, baseURL string) []BackendView {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []BackendView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	return views
}

// TestJoinHeartbeatTTLEviction drives membership with an injected
// clock: a backend that keeps heartbeating stays, one that falls
// silent past the TTL is evicted lazily on the next request.
func TestJoinHeartbeatTTLEviction(t *testing.T) {
	clock := newFakeClock()
	_, ts := newTestGateway(t, Config{HeartbeatTTL: 5 * time.Second, Now: clock.Now})

	join := func(id, addr string) int {
		t.Helper()
		body := fmt.Sprintf(`{"id":%q,"addr":%q}`, id, addr)
		resp, err := http.Post(ts.URL+"/v1/backends", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			Backends int `json:"backends"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("join %s: code %d, err %v", id, resp.StatusCode, err)
		}
		return v.Backends
	}

	if n := join("a", "http://127.0.0.1:1"); n != 1 {
		t.Fatalf("first join reported %d backends, want 1", n)
	}
	if n := join("b", "http://127.0.0.1:2"); n != 2 {
		t.Fatalf("second join reported %d backends, want 2", n)
	}

	// a heartbeats at +3s; b stays silent. At +6s b is 6s stale (> TTL)
	// and a is 3s fresh.
	clock.Advance(3 * time.Second)
	join("a", "http://127.0.0.1:1")
	clock.Advance(3 * time.Second)

	views := backendViews(t, ts.URL)
	if len(views) != 1 || views[0].ID != "a" {
		t.Fatalf("membership after TTL = %+v, want just a", views)
	}
	if views[0].AgeSeconds != 3 {
		t.Fatalf("a's heartbeat age = %v, want 3s under the fake clock", views[0].AgeSeconds)
	}

	m := gwMetrics(t, ts.URL)
	if m["sppgw_backend_evictions_total"] != 1 {
		t.Fatalf("evictions = %v, want 1", m["sppgw_backend_evictions_total"])
	}
	if m["sppgw_heartbeats_total"] != 3 {
		t.Fatalf("heartbeats = %v, want 3", m["sppgw_heartbeats_total"])
	}

	// Graceful leave removes immediately, no TTL wait.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/backends/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("leave: %v, code %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	if views := backendViews(t, ts.URL); len(views) != 0 {
		t.Fatalf("membership after leave = %+v, want empty", views)
	}

	// Bad join bodies are rejected before touching the ring.
	for _, body := range []string{`{`, `{"id":"x"}`, `{"addr":"http://h"}`} {
		resp, err := http.Post(ts.URL+"/v1/backends", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("join %q: code %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestJoinerLifecycle round-trips the sppd side of membership: a real
// Joiner registers itself, heartbeats keep it live, and Close
// deregisters it immediately.
func TestJoinerLifecycle(t *testing.T) {
	g, ts := newTestGateway(t, Config{HeartbeatTTL: time.Hour})
	j := service.StartJoiner(ts.URL, "b1", "http://127.0.0.1:9", 20*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for g.Backends() == nil || len(g.Backends()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	views := g.Backends()
	if views[0].ID != "b1" || views[0].Addr != "http://127.0.0.1:9" {
		t.Fatalf("registered view = %+v", views[0])
	}

	j.Close()
	if views := g.Backends(); len(views) != 0 {
		t.Fatalf("membership after Joiner.Close = %+v, want empty (graceful leave, not TTL)", views)
	}
}

// TestGatewaySubmitValidationAndUnavailable covers the gateway's own
// refusals: malformed bodies bounce 400 before costing a hop, and with
// no live backend submits answer 503 with a Retry-After that sppctl's
// backoff honors.
func TestGatewaySubmitValidationAndUnavailable(t *testing.T) {
	_, ts := newTestGateway(t, Config{})

	for _, body := range []string{`{`, `{"experiments":[]}`, `{"experiments":["tab1"],"nope":1}`} {
		_, resp := gwSubmit(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q: code %d, want 400", body, resp.StatusCode)
		}
	}

	_, resp := gwSubmit(t, ts.URL, seedBody(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no backends: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("503 Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}

	m := gwMetrics(t, ts.URL)
	if m["sppgw_bad_submits_total"] != 3 {
		t.Fatalf("bad_submits = %v, want 3", m["sppgw_bad_submits_total"])
	}
	if m["sppgw_unavailable_total"] != 1 {
		t.Fatalf("unavailable = %v, want 1", m["sppgw_unavailable_total"])
	}

	// A gateway missing its SubmitKey wiring fails loudly, not quietly.
	bare := New(Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(seedBody(1))))
	bare.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("submit without SubmitKey: code %d, want 500", rec.Code)
	}
}

// TestMergedMetricsReconcile drives a 2-backend cluster through
// submits, dedups, and cache-served repeats, then demands the merged
// view add up exactly: per-backend lines re-sum to the cluster totals,
// and the cluster job-lifecycle equation balances.
func TestMergedMetricsReconcile(t *testing.T) {
	stub := func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
		return fmt.Sprintf("seed:%d", spec.Options.Seed), nil
	}
	g, ts := newTestGateway(t, Config{HeartbeatTTL: time.Hour})
	backs := []*testBackend{
		startBackend(t, g, ts.URL, "m1", stub),
		startBackend(t, g, ts.URL, "m2", stub),
	}

	const seeds = 8
	ids := make([]string, 0, seeds)
	for seed := 1; seed <= seeds; seed++ {
		v, resp := gwSubmit(t, ts.URL, seedBody(seed))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit seed %d: %d", seed, resp.StatusCode)
		}
		if want := seedKey(t, seed); v.ID != want {
			t.Fatalf("seed %d routed under id %s, want its content key %s", seed, v.ID, want)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		gwWait(t, ts.URL, id, "done")
	}
	// Repeat the full sweep: every submission is now answered by a
	// finished job (dedup) without a new run.
	for seed := 1; seed <= seeds; seed++ {
		v, resp := gwSubmit(t, ts.URL, seedBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat seed %d: code %d, want 200", seed, resp.StatusCode)
		}
		if v.Status != "done" {
			t.Fatalf("repeat seed %d: status %s", seed, v.Status)
		}
	}

	m := gwMetrics(t, ts.URL)

	// The gateway accepted every submission for routing.
	if got := m["sppgw_submits_total"]; got != 2*seeds {
		t.Fatalf("sppgw_submits_total = %v, want %d", got, 2*seeds)
	}
	// Every submit is an HTTP request the gateway served, so the request
	// counter bounds the submit counter from above.
	if got := m["sppgw_requests_total"]; got < 2*seeds {
		t.Fatalf("sppgw_requests_total = %v, want >= %d", got, 2*seeds)
	}
	// No backend failed a scrape in this test, so the eviction counter
	// is present and zero.
	if got, ok := m["sppgw_backend_evictions_total"]; !ok || got != 0 {
		t.Fatalf("sppgw_backend_evictions_total = %v (present=%v), want 0", got, ok)
	}
	// Per-backend lines re-sum to the cluster totals, name by name.
	for _, name := range clusterSummed {
		sum := 0.0
		for _, b := range backs {
			sum += m["sppgw_backend_"+b.id+"_"+name]
		}
		if got := m["sppgw_cluster_"+name]; got != sum {
			t.Errorf("sppgw_cluster_%s = %v, but backend lines sum to %v", name, got, sum)
		}
	}
	// The cluster lifecycle equation, exactly: every submission that
	// reached a backend was deduped, rejected, or ended terminal.
	sub := m["sppgw_cluster_jobs_submitted_total"]
	acc := m["sppgw_cluster_jobs_deduplicated_total"] + m["sppgw_cluster_jobs_rejected_total"] +
		m["sppgw_cluster_jobs_done_total"] + m["sppgw_cluster_jobs_failed_total"] +
		m["sppgw_cluster_jobs_canceled_total"] + m["sppgw_cluster_jobs_timeout_total"] +
		m["sppgw_cluster_jobs_checkpointed_total"]
	if sub != 2*seeds || sub != acc {
		t.Errorf("cluster lifecycle: submitted %v, accounted %v, want both %d", sub, acc, 2*seeds)
	}
	// Done splits into cached answers and fresh executions, and the
	// fresh executions are exactly the runs the stubs saw.
	runs := float64(backs[0].runs.Load() + backs[1].runs.Load())
	if runs != seeds {
		t.Errorf("stub runs = %v, want %d (dedup must not re-run)", runs, seeds)
	}
	if done, cached := m["sppgw_cluster_jobs_done_total"], m["sppgw_cluster_jobs_done_cached_total"]; done-cached != runs {
		t.Errorf("done %v - done_cached %v = %v computed, want %v runs", done, cached, done-cached, runs)
	}
	// Both backends took a share of the keyspace.
	for _, b := range backs {
		if m["sppgw_backend_"+b.id+"_jobs_submitted_total"] == 0 {
			t.Errorf("backend %s saw no submissions: ring not spreading keys", b.id)
		}
	}
}

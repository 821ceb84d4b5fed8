package service

// Backend-identity and peer-fetch tests: the service-side halves of
// the sppgw cluster protocol, exercised directly against one daemon
// (the gateway-side integration lives in internal/gateway's suite).

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"spp1000/internal/experiments"
	"spp1000/internal/machine"
	"spp1000/internal/store"
)

// TestBackendIdentitySurfaces pins the two places a clustered daemon
// names itself: the "backend" field of every job view and the
// X-Spp-Backend header on every response. A standalone daemon (no ID)
// must emit neither.
func TestBackendIdentitySurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{ID: "node7", Run: func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
		return "ok", nil
	}})

	v, code := submit(t, ts, seedBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if v.Backend != "node7" {
		t.Fatalf("submit view backend = %q, want node7", v.Backend)
	}
	waitStatus(t, ts, v.ID, StatusDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hdr := resp.Header.Get("X-Spp-Backend"); hdr != "node7" {
		t.Fatalf("X-Spp-Backend = %q, want node7", hdr)
	}
	// The header rides every route, even ones that never touch a job.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hdr := resp.Header.Get("X-Spp-Backend"); hdr != "node7" {
		t.Fatalf("healthz X-Spp-Backend = %q, want node7", hdr)
	}

	_, solo := newTestServer(t, Config{Run: func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
		return "ok", nil
	}})
	sv, code := submit(t, solo, seedBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("solo submit: %d", code)
	}
	if sv.Backend != "" {
		t.Fatalf("standalone view backend = %q, want empty", sv.Backend)
	}
	resp, err = http.Get(solo.URL + "/v1/jobs/" + sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hdr := resp.Header.Get("X-Spp-Backend"); hdr != "" {
		t.Fatalf("standalone X-Spp-Backend = %q, want absent", hdr)
	}
}

// TestPeerFetchHookServesWithoutRunning proves a configured PeerFetch
// answers a miss without executing the RunFunc, books the job as a
// cached done, and counts the peer hit.
func TestPeerFetchHookServesWithoutRunning(t *testing.T) {
	var runs, fetches atomic.Int64
	_, ts := newTestServer(t, Config{
		ID: "warm1",
		Run: func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
			runs.Add(1)
			return "computed", nil
		},
		PeerFetch: func(ctx context.Context, key string) (string, bool) {
			fetches.Add(1)
			return "from-peer", true
		},
	})

	v, code := submit(t, ts, seedBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusDone)
	if !done.Cached {
		t.Fatalf("peer-served job cached = false, want true")
	}
	res, resp := getResult(t, ts, v.ID)
	if resp.StatusCode != http.StatusOK || res != "from-peer" {
		t.Fatalf("result = %d %q, want the peer's payload", resp.StatusCode, res)
	}
	if runs.Load() != 0 || fetches.Load() != 1 {
		t.Fatalf("runs = %d, fetches = %d; want 0 runs, 1 fetch", runs.Load(), fetches.Load())
	}

	m := metricsMap(t, ts)
	if m["peer_hits_total"] != 1 {
		t.Fatalf("peer_hits_total = %v, want 1", m["peer_hits_total"])
	}
	if m["jobs_done_cached_total"] != 1 {
		t.Fatalf("jobs_done_cached_total = %v, want 1", m["jobs_done_cached_total"])
	}
	if m["jobs_done_total"] != 1 {
		t.Fatalf("jobs_done_total = %v, want 1", m["jobs_done_total"])
	}

	// The peer payload entered the write-through cache: a resubmit
	// dedups at the job table without consulting the peer again.
	if _, code := submit(t, ts, seedBody(1)); code != http.StatusOK {
		t.Fatalf("resubmit: %d, want 200", code)
	}
	if fetches.Load() != 1 {
		t.Fatalf("resubmit consulted the peer again (%d fetches)", fetches.Load())
	}
}

// TestPeerFetchMissFallsThrough proves a PeerFetch that reports a miss
// leaves the job on the normal compute path, uncached.
func TestPeerFetchMissFallsThrough(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		ID: "cold1",
		Run: func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
			runs.Add(1)
			return "computed", nil
		},
		PeerFetch: func(ctx context.Context, key string) (string, bool) { return "", false },
	})
	v, code := submit(t, ts, seedBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusDone)
	if done.Cached {
		t.Fatal("peer-missed job reported cached")
	}
	if res, _ := getResult(t, ts, v.ID); res != "computed" {
		t.Fatalf("result = %q", res)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
	m := metricsMap(t, ts)
	if m["peer_hits_total"] != 0 || m["jobs_done_cached_total"] != 0 {
		t.Fatalf("peer_hits %v done_cached %v, want 0/0", m["peer_hits_total"], m["jobs_done_cached_total"])
	}
}

// TestStoreExportValidation pins the export endpoint's edges directly:
// well-formed unknown keys 404, malformed keys 400 (store.ValidKey is
// the arbiter), and a known key serves a CRC-framed entry.
func TestStoreExportValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Run: func(ctx context.Context, _ *machine.Env, spec experiments.Spec) (string, error) {
		return "payload", nil
	}})
	v, code := submit(t, ts, seedBody(3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, v.ID, StatusDone)

	get := func(key string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/store/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(v.ID); code != http.StatusOK {
		t.Fatalf("export of known key: %d", code)
	}
	if code := get(strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("export of unknown key: %d, want 404", code)
	}
	for _, bad := range []string{"short", strings.Repeat("Z", 64), strings.Repeat("0", 129)} {
		if code := get(bad); code != http.StatusBadRequest {
			t.Fatalf("export of malformed key %q: %d, want 400", bad, code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/store/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if val, ok := store.Decode(data); !ok || val != "payload" {
		t.Fatalf("exported frame decodes (%v) to %q, want \"payload\"", ok, val)
	}
}

package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/gateway"
	"spp1000/internal/load"
	"spp1000/internal/service"
	"spp1000/internal/store"
)

// probeStore times store.Put and store.Get of the run's real result
// payloads in a fresh directory, three rounds, reporting the median of
// the per-round mean milliseconds per call.
func probeStore(r *report, e *env, t *tally, payloads map[string]string) {
	if len(payloads) == 0 {
		return
	}
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dir := filepath.Join(e.work, "store-probe")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	t.attempted++
	if err != nil {
		t.fail("store.Open: %v", err)
		return
	}
	var puts, gets []float64
	for round := 0; round < 3; round++ {
		sp := e.tr.start("store.Put", 0, "store-probe")
		t0 := time.Now()
		for _, k := range keys {
			if err := st.Put(k, payloads[k]); err != nil {
				t.fail("store.Put: %v", err)
			}
		}
		puts = append(puts, time.Since(t0).Seconds()*1e3/float64(len(keys)))
		e.tr.end(sp, "")
		sp = e.tr.start("store.Get", 0, "store-probe")
		t0 = time.Now()
		for _, k := range keys {
			if v, ok, err := st.Get(k); err != nil || !ok || v != payloads[k] {
				t.fail("store.Get(%s): ok %t err %v", k, ok, err)
			}
		}
		gets = append(gets, time.Since(t0).Seconds()*1e3/float64(len(keys)))
		e.tr.end(sp, "")
	}
	r.setN("store.put_ms", median(puts), len(keys))
	r.setN("store.get_ms", median(gets), len(keys))
}

// probeSubmitKey times service.SubmitKey — the daemon's own body parse
// and content addressing — over the first 2000 submit bodies of the
// run's op sequence.
func probeSubmitKey(r *report, w *serviceWorkload, seed uint64, t *tally) {
	bodies := submitBodies(w, seed)
	t0 := time.Now()
	keysOf(bodies, t)
	r.setN("service.submit_key_us", time.Since(t0).Seconds()*1e6/float64(len(bodies)), len(bodies))
}

// submitBodies are the first 2000 submit bodies of w's op sequence.
func submitBodies(w *serviceWorkload, seed uint64) [][]byte {
	gen := w.generator(seed)
	var bodies [][]byte
	for len(bodies) < 2000 {
		op := gen.Next()
		if w.className(op.Class) == "list" {
			continue
		}
		_, body := w.spec(op, seed)
		bodies = append(bodies, body)
	}
	return bodies
}

// keysOf derives each body's key with service.SubmitKey.
func keysOf(bodies [][]byte, t *tally) []string {
	keys := make([]string, len(bodies))
	for i, b := range bodies {
		k, err := service.SubmitKey(b)
		if err != nil {
			t.fail("service.SubmitKey: %v", err)
		}
		keys[i] = k
	}
	return keys
}

// probeRing times gateway.Ring.Owner over the workload's keys on a ring
// built like sppgw's, and checks that it names the backend that
// actually ran each cold job.
func probeRing(r *report, keys []string, coldOwner map[string]string) {
	ring := gateway.NewRing(gateway.DefaultVNodes)
	ring.Add("b0")
	ring.Add("b1")
	const rounds = 10
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, k := range keys {
			ring.Owner(k)
		}
	}
	r.setN("gateway.ring_owner_us", time.Since(t0).Seconds()*1e6/float64(rounds*len(keys)), len(keys))
	for k, b := range coldOwner {
		if o, _ := ring.Owner(k); o != b {
			r.problem("routing: cold job %s ran on %s, ring owner is %s", k, b, o)
		}
	}
}

// hotRoundTrip resubmits a completed spec to base and fetches its
// result, returning the wall milliseconds and the answering backend.
func (c *client) hotRoundTrip(base string, body []byte, exp string) (float64, string, error) {
	t0 := time.Now()
	code, v, err := c.submit(base, body, 0)
	if err == nil && (code != http.StatusOK || v.Status != "done") {
		err = fmt.Errorf("hot submit to %s: HTTP %d status %s", base, code, v.Status)
	}
	if err == nil {
		_, err = c.result(base, v.ID, exp, 0)
	}
	return time.Since(t0).Seconds() * 1e3, v.Backend, err
}

// layerMetrics measures the service tiers for the traced run: client
// side per-class submit and result times, the server's metric deltas,
// the store and key derivation in-process, and — for the cluster — the
// gateway's forward overhead and ring.
func (w *serviceWorkload) layerMetrics(e *env, c *client, dep *deployment, r *report, st *svcStats, delta load.Metrics, t *tally) {
	for _, cl := range []string{"hot", "cold", "warm"} {
		if n := len(st.submitMS[cl]); n > 0 {
			r.setN("service.submit_ms."+cl, median(st.submitMS[cl]), n)
			r.setN("service.result_ms."+cl, median(st.resultMS[cl]), n)
		}
	}
	if n := len(st.polls); n > 0 {
		r.setN("service.polls_per_job", sum(st.polls)/float64(n), n)
		r.setN("service.queue_wait_ms", median(st.queueWait), n)
	}
	p := w.prefix()
	r.set("service.dedup", delta[p+"jobs_deduplicated_total"])
	r.set("service.rejected", delta[p+"jobs_rejected_total"])
	r.set("service.busy_s", delta[p+"busy_seconds_total"])
	hits, misses := delta[p+"cache_hits_total"], delta[p+"cache_misses_total"]
	if hits+misses > 0 {
		r.set("resultcache.hit_ratio", hits/(hits+misses))
	}
	r.set("resultcache.coalesced", delta[p+"cache_coalesced_total"])
	r.set("resultcache.evictions", delta[p+"cache_evictions_total"])
	r.set("store.hits", delta[p+"store_hits_total"])
	r.set("store.errors", delta[p+"store_errors_total"])
	if lat := st.lat["warm"]; len(lat) > 0 {
		r.setN("store.warm_p50_ms", median(lat), len(lat))
	}
	probeStore(r, e, t, st.payloads)
	probeSubmitKey(r, w, e.seed, t)

	// The cold specs in-process: per-experiment time, sim totals, and
	// the PMU counts of the same specs through sppbench -counters.
	var outs []string
	o := experiments.Quick()
	withProcs(1, func() { outs = inprocPass(r, e.tr, t, w.coldExps, o, "probe") })
	coldS := 0.0
	for i, id := range w.coldExps {
		coldS += r.vals["experiments."+id+"_s"].v
		if digestOf([]byte(outs[i])) != resultDigests[id] {
			t.fail("in-process %s: wrong bytes", id)
		}
	}
	r.set("experiments.cold_run_ms", coldS/float64(len(w.coldExps))*1e3)
	for k, v := range pmuPass(e, t, w.coldExps, 1, true) {
		r.set(k, float64(v))
	}
	checkCounts(r, w.counts)
}

// probeGateway measures the gateway layer in the traced run of a
// workload without a gateway. w is cluster-mix: it sets up w's
// deployment (sppgw in front of two sppd backends), serves one segment
// of w's mix through it with every other batch traced, reconciles the
// segment against the gateway's metrics, and reports the gateway
// metrics from it. cluster-mix is not among the workloads the benchmark
// bounds (BENCHMARK.md says why); this keeps its layer measured.
func (w *serviceWorkload) probeGateway(e *env, c *client, r *report, t *tally) error {
	dep, err := w.setup(e, c, e.seed, 0, 0)
	if err != nil {
		return fmt.Errorf("gateway probe set-up: %w", err)
	}
	defer func() {
		c.http.CloseIdleConnections()
		if _, clean := dep.stop(); !clean {
			r.problem("a gateway probe daemon did not drain cleanly on SIGTERM")
		}
	}()
	before, err := load.Scrape(c.http, dep.entry, "")
	if err != nil {
		return err
	}
	st, traced := newSvcStats(), newSvcStats()
	w.loop(e, c, dep, w.generator(e.seed), st, traced, t)
	after, err := load.Scrape(c.http, dep.entry, "")
	if err != nil {
		return err
	}
	st.merge(traced)
	delta := after.Delta(before)
	w.reconcile(r, st, delta, after)

	r.setN("gateway.list_ms", median(st.lat["list"]), len(st.lat["list"]))
	probeRing(r, keysOf(submitBodies(w, e.seed), t), st.coldOwner)
	most, total := 0, 0
	for _, n := range st.coldBy {
		most = max(most, n)
		total += n
	}
	if total > 0 {
		r.setN("gateway.backend_share_max", float64(most)/float64(total), total)
	}
	r.set("gateway.proxy_retries", delta["sppgw_proxy_retries_total"])
	r.set("gateway.evictions", delta["sppgw_backend_evictions_total"])
	r.set("gateway.unavailable", delta["sppgw_unavailable_total"])
	w.probeForward(r, c, dep, e.seed, t)
	return nil
}

// probeForward measures the gateway's forward overhead: hot round trips
// through sppgw against the same round trips sent straight to the
// owning backend, alternating which goes first, as the difference of
// their medians.
func (w *serviceWorkload) probeForward(r *report, c *client, dep *deployment, seed uint64, t *tally) {
	const n = 400
	var viaGW, direct []float64
	owner := map[int]string{}
	for i := 0; i < n; i++ {
		k := i % w.hotKeys
		exp, body := w.spec(load.Op{Class: load.OpHot, Key: k}, seed)
		first := []string{dep.entry, dep.backends[owner[k]]}
		if i%2 == 1 && owner[k] != "" {
			first[0], first[1] = first[1], first[0]
		}
		for j := 0; j < 2; j++ {
			base := first[j]
			if base == "" { // owner learned from the gateway's answer
				base = dep.backends[owner[k]]
			}
			ms, backend, err := c.hotRoundTrip(base, body, exp)
			t.attempted++
			if err != nil || dep.backends[backend] == "" {
				t.fail("forward probe via %s: backend %q: %v", base, backend, err)
				break
			}
			owner[k] = backend
			if base == dep.entry {
				viaGW = append(viaGW, ms)
			} else {
				direct = append(direct, ms)
			}
		}
	}
	r.setN("gateway.forward_overhead_ms", median(viaGW)-median(direct), len(viaGW))
}

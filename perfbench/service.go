package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/load"
)

// serviceWorkload drives sppd (or sppgw in front of sppd backends) over
// loopback HTTP with two closed-loop clients: each client sends its next
// request only after the previous one has its result, as sppctl -wait
// and sweeps do.
type serviceWorkload struct {
	name    string
	cluster bool
	// mix weights the classes for load.NewGenerator: Hot, Cold, and the
	// workload's third class (warm or list) in the generator's Cancel
	// slot, whose per-class unique counter numbers the warm keys.
	mix   load.Mix
	third string
	// hotExps and coldExps are the experiments the hot and cold specs
	// cycle through (quick scale, seeds from the run seed).
	hotExps, coldExps []string
	hotKeys           int
	// segmentBatches is how many batches one deployment serves. It is
	// fixed, not timed, so that every run takes its job tables through
	// the same sizes whatever the host's speed: a list fan-out and the
	// lock it holds cost more the more jobs a table has.
	segmentBatches int
	// counts are the exact sim totals and PMU counts of one in-process
	// run of coldExps.
	counts map[string]int64
	// gateway, if set, is the cluster workload whose deployment the
	// traced run borrows to measure the gateway layer (probeGateway).
	gateway *serviceWorkload
}

// The traffic model is internal/load's, the one sppload drives and
// LOAD_8.json records; no trace of real sppd traffic exists to fit one
// to. Both workloads take load.DefaultMix's weights for the classes they
// share with it, hot 40 : cold 30, and put their third class in its
// cancel slot at the cancel weight, 10. hotKeys and zipfS are
// load.Config's defaults.
func loadMix() load.Mix {
	m := load.DefaultMix()
	return load.Mix{Hot: m.Hot, Cold: m.Cold, Cancel: m.Cancel}
}

const (
	hotKeys = 8
	zipfS   = 1.1
)

var serviceMix = &serviceWorkload{
	name:     "service-mix",
	mix:      loadMix(),
	third:    "warm",
	hotExps:  []string{"fig2", "fig3", "fig4", "tab1"},
	coldExps: []string{"fig2", "fig3", "fig4"},
	hotKeys:  hotKeys,
	// About 2.5 s of serving on the machine BENCHMARK.md describes, and
	// 20 warm specs to prime per set-up.
	segmentBatches: 2,
	counts:         serviceMixCounts,
	gateway:        clusterMix,
}

var clusterMix = &serviceWorkload{
	name:     "cluster-mix",
	cluster:  true,
	mix:      loadMix(),
	third:    "list",
	hotExps:  []string{"tab1"},
	coldExps: []string{"tab1"},
	hotKeys:  hotKeys,
	// About 3 s of serving on the machine BENCHMARK.md describes; the
	// backends' tables end a segment at about 250 jobs each.
	segmentBatches: 16,
}

// resultDigests are the SHA-256 of each experiment's result as sppd
// serves it (sppbench's banner format). fig2–fig4 and tab1 take no
// options, so the digest holds for every seed and scale.
var resultDigests = map[string]string{
	"fig2": "2f45fc1d851e541fdfd24ece911b05d818e006bcc1cd32200f74799e8b05969b",
	"fig3": "a775d4b5ddd2ed1429dbeb150b22e29ffb9150b946ff42779eaeea78c6a447ca",
	"fig4": "1c76caad485688286a8059355fa9b3082f1bb9c299f3527c4b43dbb45ddc3b55",
	"tab1": tab1Digest,
}

// className names a generated op's class in this workload.
func (w *serviceWorkload) className(c load.OpClass) string {
	switch c {
	case load.OpHot:
		return "hot"
	case load.OpCold:
		return "cold"
	}
	return w.third
}

// spec renders an op into its experiment and POST /v1/jobs body. The
// options seed namespaces run seed, class and key, so equal ops give
// equal bodies and no two classes share a content address.
func (w *serviceWorkload) spec(op load.Op, seed uint64) (string, []byte) {
	exps, class := w.coldExps, uint64(2)
	switch w.className(op.Class) {
	case "hot":
		exps, class = w.hotExps, 1
	case "warm":
		exps, class = []string{"tab1"}, 3
	}
	exp := exps[op.Key%len(exps)]
	o := experiments.Quick()
	o.Seed = (seed&0xffffffff)<<32 | class<<28 | uint64(op.Key)
	body, err := json.Marshal(map[string]any{"experiments": []string{exp}, "options": o})
	if err != nil {
		panic(err) // a map of marshalable values cannot fail
	}
	return exp, body
}

func (w *serviceWorkload) generator(seed uint64) *load.Generator {
	g, err := load.NewGenerator(w.mix, w.hotKeys, zipfS, seed)
	if err != nil {
		panic(err) // the mixes above are valid
	}
	return g
}

// deployment is the daemons serving one run.
type deployment struct {
	entry    string            // where clients send requests
	serving  []*daemon         // the daemons whose peak RSS is reported
	backends map[string]string // cluster backend id -> base URL
	primeCPU time.Duration     // CPU time of the priming sppd's life
}

// cpu is the serving daemons' summed CPU time so far.
func (d *deployment) cpu() (time.Duration, error) {
	var total time.Duration
	for _, dm := range d.serving {
		c, err := dm.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// stop drains the serving daemons. Close the clients' idle connections
// first: sppd's graceful shutdown waits up to five seconds for a
// connection that was opened but never sent a request.
func (d *deployment) stop() (rssMB float64, clean bool) {
	clean = true
	for _, dm := range d.serving {
		clean = dm.stop() && clean
		rssMB += dm.rssMB
	}
	return rssMB, clean
}

// client speaks the job API and checks every answer.
type client struct {
	http *http.Client
	tr   *tracer
}

func newClient(tr *tracer) *client {
	return &client{
		http: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		tr:   tr,
	}
}

func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobView is the part of sppd's job JSON the benchmark reads.
type jobView struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Cached      bool   `json:"cached"`
	Backend     string `json:"backend"`
	SubmittedAt string `json:"submittedAt"`
	StartedAt   string `json:"startedAt"`
}

func (c *client) submit(base string, body []byte, parent int) (int, jobView, error) {
	sp := c.tr.start("service.submit", parent, "")
	defer c.tr.end(sp, "")
	code, data, err := c.do(http.MethodPost, base+"/v1/jobs", body)
	var v jobView
	if err == nil && (code == http.StatusOK || code == http.StatusAccepted) {
		err = json.Unmarshal(data, &v)
	}
	return code, v, err
}

// result fetches a done job's result and checks it byte for byte.
func (c *client) result(base, id, exp string, parent int) (string, error) {
	sp := c.tr.start("service.result", parent, "")
	defer c.tr.end(sp, "")
	code, data, err := c.do(http.MethodGet, base+"/v1/jobs/"+id+"/result", nil)
	switch {
	case err != nil:
		return "", err
	case code != http.StatusOK:
		return "", fmt.Errorf("result %s: HTTP %d", id, code)
	case digestOf(data) != resultDigests[exp]:
		return "", fmt.Errorf("result %s (%s): wrong bytes", id, exp)
	}
	return string(data), nil
}

// pollBudget bounds the status polls one job may take.
const pollBudget = 30000

// quickPolls is how many status polls follow one another at once before
// the client sleeps 1 ms between polls. A cold tab1 job is done within a
// round trip or two; a sleep, which the host may stretch to 2 ms, would
// otherwise be most of its latency and of that latency's spread between
// runs.
const quickPolls = 3

// waitDone polls a job until it is done and returns its final view and
// the number of polls.
func (c *client) waitDone(base, id string, parent int) (jobView, int, error) {
	for polls := 1; polls <= pollBudget; polls++ {
		sp := c.tr.start("service.poll", parent, "")
		code, data, err := c.do(http.MethodGet, base+"/v1/jobs/"+id, nil)
		c.tr.end(sp, "")
		if err != nil || code != http.StatusOK {
			return jobView{}, polls, fmt.Errorf("status %s: HTTP %d %v", id, code, err)
		}
		var v jobView
		if err := json.Unmarshal(data, &v); err != nil {
			return v, polls, err
		}
		switch v.Status {
		case "done":
			return v, polls, nil
		case "queued", "running":
			if polls > quickPolls {
				time.Sleep(time.Millisecond)
			}
		default:
			return v, polls, fmt.Errorf("job %s ended %s", id, v.Status)
		}
	}
	return jobView{}, pollBudget, fmt.Errorf("job %s: poll budget of %d exhausted", id, pollBudget)
}

// opResult is one finished operation.
type opResult struct {
	class           string
	ok              bool
	err             error
	latMS           float64 // submit -> checked result
	submitMS, resMS float64
	polls           int
	queueWaitMS     float64
	key, backend    string
	payload         string
}

// execute performs one operation end to end.
func (c *client) execute(w *serviceWorkload, dep *deployment, op load.Op, seed uint64) (res opResult) {
	res.class = w.className(op.Class)
	root := c.tr.start("op."+res.class, 0, "")
	start := time.Now()
	defer func() {
		res.latMS = time.Since(start).Seconds() * 1e3
		c.tr.end(root, res.key)
	}()
	if res.class == "list" {
		sp := c.tr.start("gateway.list", root, "")
		code, data, err := c.do(http.MethodGet, dep.entry+"/v1/jobs", nil)
		c.tr.end(sp, "")
		var jobs []json.RawMessage
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("list: HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(data, &jobs)
		}
		if err == nil && len(jobs) < w.hotKeys {
			err = fmt.Errorf("list: %d jobs, want at least the %d hot keys", len(jobs), w.hotKeys)
		}
		res.ok, res.err = err == nil, err
		return res
	}
	exp, body := w.spec(op, seed)
	t0 := time.Now()
	code, v, err := c.submit(dep.entry, body, root)
	res.submitMS = time.Since(t0).Seconds() * 1e3
	res.key, res.backend = v.ID, v.Backend
	switch {
	case err != nil:
		res.err = err
		return res
	case res.class == "cold" && code != http.StatusAccepted:
		res.err = fmt.Errorf("cold submit: HTTP %d, want 202", code)
		return res
	case res.class != "cold" && (code != http.StatusOK || v.Status != "done" || !v.Cached):
		res.err = fmt.Errorf("%s submit: HTTP %d status %s cached %t, want a cached done job", res.class, code, v.Status, v.Cached)
		return res
	}
	if res.class == "cold" {
		final, polls, err := c.waitDone(dep.entry, v.ID, root)
		res.polls = polls
		if err != nil {
			res.err = err
			return res
		}
		sub, e1 := time.Parse(time.RFC3339Nano, final.SubmittedAt)
		st, e2 := time.Parse(time.RFC3339Nano, final.StartedAt)
		if e1 == nil && e2 == nil {
			res.queueWaitMS = st.Sub(sub).Seconds() * 1e3
		}
	}
	t1 := time.Now()
	res.payload, res.err = c.result(dep.entry, v.ID, exp, root)
	res.resMS = time.Since(t1).Seconds() * 1e3
	res.ok = res.err == nil
	return res
}

// svcStats accumulates the samples of one or more loops.
type svcStats struct {
	mu        sync.Mutex
	batchS    []float64
	batchCPU  []float64
	ops       int
	lat       map[string][]float64
	submitMS  map[string][]float64
	resultMS  map[string][]float64
	polls     []float64
	queueWait []float64
	coldBy    map[string]int    // cold jobs per backend
	coldOwner map[string]string // cold job key -> backend that ran it
	posts     map[string]int    // submits answered as expected, by class
	payloads  map[string]string
}

func newSvcStats() *svcStats {
	return &svcStats{
		lat: map[string][]float64{}, submitMS: map[string][]float64{}, resultMS: map[string][]float64{},
		coldBy: map[string]int{}, coldOwner: map[string]string{}, posts: map[string]int{}, payloads: map[string]string{},
	}
}

func (s *svcStats) add(r opResult, t *tally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	t.attempted++
	if r.class != "list" && r.key != "" {
		s.posts[r.class]++ // the daemon saw and answered this submit
	}
	if !r.ok {
		t.fail("%s op: %v", r.class, r.err)
		return
	}
	s.lat[r.class] = append(s.lat[r.class], r.latMS)
	if r.class == "list" {
		return
	}
	s.submitMS[r.class] = append(s.submitMS[r.class], r.submitMS)
	s.resultMS[r.class] = append(s.resultMS[r.class], r.resMS)
	if r.class == "cold" {
		s.polls = append(s.polls, float64(r.polls))
		s.queueWait = append(s.queueWait, r.queueWaitMS)
		s.coldBy[r.backend]++
		s.coldOwner[r.key] = r.backend
	}
	if len(s.payloads) < 64 {
		s.payloads[r.key] = r.payload
	}
}

// loop runs one segment: segmentBatches batches of one mix period on
// two closed-loop clients. In the traced run every other batch is traced
// and recorded in traced, so that traced and untraced batches see the
// same host conditions and job tables.
func (w *serviceWorkload) loop(e *env, c *client, dep *deployment, gen *load.Generator, st, traced *svcStats, t *tally) {
	batch := w.mix.Total()
	for b := 0; b < w.segmentBatches; b++ {
		e.ref.tick()
		into := st
		c.tr = nil
		if b%2 == 1 && e.tr != nil {
			c.tr, into = e.tr, traced
		}
		ops := make(chan load.Op, batch)
		for i := 0; i < batch; i++ {
			ops <- gen.Next()
		}
		close(ops)
		cpu0, err0 := dep.cpu()
		t0 := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := range ops {
					into.add(c.execute(w, dep, op, e.seed), t)
				}
			}()
		}
		wg.Wait()
		into.batchS = append(into.batchS, time.Since(t0).Seconds())
		cpu1, err1 := dep.cpu()
		if err0 == nil && err1 == nil {
			into.batchCPU = append(into.batchCPU, (cpu1 - cpu0).Seconds())
		}
	}
	c.tr = e.tr
}

// jobTable is the size of sppd's job table (service.Config.MaxJobs,
// which sppd leaves at its default). A hot resubmit is answered from the
// table only while its job is there; once pruned it would be answered by
// the cache and break the reconciliation. So the jobs a segment adds —
// cold, and warm on service-mix — must fit beside the hot jobs even if
// all land on one backend; TestSegmentsStayWithinSetUp checks that.
const jobTable = 1024

// warmPerSegment is how many warm specs a segment uses, and so how many
// its set-up primes: the generator's schedule gives exactly Cancel of
// them per batch.
func (w *serviceWorkload) warmPerSegment() int {
	if w.third != "warm" {
		return 0
	}
	return w.segmentBatches * w.mix.Cancel
}

func (w *serviceWorkload) daemonArgs(addr, store string) []string {
	return []string{"-addr", addr, "-jobs", "1", "-par", "1", "-store", store}
}

// submitAndWait runs one job to completion during set-up.
func (c *client) submitAndWait(base string, body []byte) error {
	code, v, err := c.submit(base, body, 0)
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return fmt.Errorf("set-up submit: HTTP %d", code)
	}
	_, _, err = c.waitDone(base, v.ID, 0)
	return err
}

// forEach runs fn(0..n-1) on two workers and returns the first error.
func forEach(n int, fn func(i int) error) error {
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func waitHealthy(url string) error {
	return load.WaitHealthy(nil, url, 10000, time.Millisecond, nil)
}

// setup starts the workload's daemons. For service-mix that is a first
// sppd life that computes the segment's warm specs, numbered from
// warmFrom, into a fresh durable store and drains, then the serving sppd
// on the same store; for cluster-mix a
// gateway and two joined backends. Both end by completing the hot specs
// once, so that hot ops are resubmits of completed keys.
func (w *serviceWorkload) setup(e *env, c *client, seed uint64, idx, warmFrom int) (*deployment, error) {
	dep := &deployment{backends: map[string]string{}}
	hot := func() error {
		return forEach(w.hotKeys, func(k int) error {
			_, body := w.spec(load.Op{Class: load.OpHot, Key: k}, seed)
			return c.submitAndWait(dep.entry, body)
		})
	}
	if !w.cluster {
		storeDir := filepath.Join(e.work, fmt.Sprintf("store-%d", idx))
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		life1, err := e.startDaemon(fmt.Sprintf("sppd-prime-%d", idx), "http://"+addr, "sppd", w.daemonArgs(addr, storeDir)...)
		if err != nil {
			return nil, err
		}
		if err := waitHealthy(life1.url); err != nil {
			return nil, err
		}
		err = forEach(w.warmPerSegment(), func(k int) error {
			_, body := w.spec(load.Op{Class: load.OpCancel, Key: warmFrom + k}, seed)
			return c.submitAndWait(life1.url, body)
		})
		if err != nil {
			return nil, fmt.Errorf("priming the warm store: %w", err)
		}
		c.http.CloseIdleConnections()
		if !life1.stop() {
			return nil, fmt.Errorf("priming sppd did not drain cleanly")
		}
		dep.primeCPU = life1.cpuAt
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
		d, err := e.startDaemon(fmt.Sprintf("sppd-%d", idx), "http://"+addr, "sppd", w.daemonArgs(addr, storeDir)...)
		if err != nil {
			return nil, err
		}
		dep.entry, dep.serving = d.url, []*daemon{d}
		if err := waitHealthy(d.url); err != nil {
			return nil, err
		}
		return dep, hot()
	}
	gwAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	gw, err := e.startDaemon(fmt.Sprintf("sppgw-%d", idx), "http://"+gwAddr, "sppgw", "-addr", gwAddr)
	if err != nil {
		return nil, err
	}
	dep.entry, dep.serving = gw.url, []*daemon{gw}
	if err := waitHealthy(gw.url); err != nil {
		return nil, err
	}
	for b := 0; b < 2; b++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("b%d", b)
		args := append(w.daemonArgs(addr, filepath.Join(e.work, fmt.Sprintf("store-%d-%s", idx, id))), "-join", gw.url, "-id", id)
		d, err := e.startDaemon(fmt.Sprintf("sppd-%d-%s", idx, id), "http://"+addr, "sppd", args...)
		if err != nil {
			return nil, err
		}
		dep.serving = append(dep.serving, d)
		dep.backends[id] = d.url
	}
	for i := 0; ; i++ {
		code, data, err := c.do(http.MethodGet, gw.url+"/v1/backends", nil)
		var members []json.RawMessage
		if err == nil && code == http.StatusOK && json.Unmarshal(data, &members) == nil && len(members) == 2 {
			break
		}
		if i == 10000 {
			return nil, fmt.Errorf("backends never joined the gateway")
		}
		time.Sleep(time.Millisecond)
	}
	return dep, hot()
}

func (w *serviceWorkload) run(e *env) (*report, error) {
	r := newReport(w.name, e.seed)
	var t tally
	c := newClient(nil)
	defer c.http.CloseIdleConnections()

	gen := w.generator(e.seed)
	st, traced := newSvcStats(), newSvcStats()
	delta := load.Metrics{}
	var setups, setupCPU, rss []float64
	// Segments follow one another until the run has served e.dur; each
	// starts with a fresh deployment, so set-up time and the daemons'
	// peak RSS, one sample per deployment, are medians over them.
	var served time.Duration
	for i := 0; served < e.dur; i++ {
		t0 := time.Now()
		dep, err := w.setup(e, c, e.seed, i, i*w.warmPerSegment())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if c, err := dep.cpu(); err == nil {
			setupCPU = append(setupCPU, (c + dep.primeCPU).Seconds())
		}
		before, err := load.Scrape(c.http, dep.entry, "")
		if err != nil {
			return nil, err
		}
		seg, segTraced := newSvcStats(), newSvcStats()
		t0 = time.Now()
		w.loop(e, c, dep, gen, seg, segTraced, &t)
		served += time.Since(t0)
		after, err := load.Scrape(c.http, dep.entry, "")
		if err != nil {
			return nil, err
		}
		d := after.Delta(before)
		st.merge(seg)
		traced.merge(segTraced)
		seg.merge(segTraced)
		w.reconcile(r, seg, d, after)
		for k, v := range d {
			delta[k] += v
		}
		if e.tr != nil && served >= e.dur {
			all := newSvcStats()
			all.merge(st)
			all.merge(traced)
			w.layerMetrics(e, c, dep, r, all, delta, &t)
		}
		c.http.CloseIdleConnections()
		mb, clean := dep.stop()
		if !clean {
			r.problem("a daemon did not drain cleanly on SIGTERM")
		}
		rss = append(rss, mb)
	}

	if e.tr == nil {
		r.host(&e.ref)
		r.setN("setup_s", median(r.norm(setupCPU)), len(setupCPU))
		r.setN("pass_cpu_s", median(r.norm(st.batchCPU)), len(st.batchCPU))
		r.setN("peak_rss_mb", median(rss), len(rss))
		r.setN("pass_s", median(st.batchS), len(st.batchS))
		r.setN("jobs_per_s", st.rate(), st.ops)
		r.setN("setup_wall_s", median(setups), len(setups))
		r.setPct("hot_p50_ms", st.lat["hot"], 0.50)
		r.setPct("hot_p99_ms", st.lat["hot"], 0.99)
		r.setPct("cold_p50_ms", st.lat["cold"], 0.50)
		r.setPct("cold_p90_ms", st.lat["cold"], 0.90)
	} else {
		r.setN("trace.overhead_pct", (st.rate()/traced.rate()-1)*100, traced.ops)
		if w.gateway != nil {
			if err := w.gateway.probeGateway(e, c, r, &t); err != nil {
				return nil, err
			}
		}
		reportSelfTimes(r, e.tr)
	}
	r.attempted, r.failed = t.attempted, t.failed
	for _, msg := range t.errs {
		r.problem("%s", msg)
	}
	return r, nil
}

// prefix is the metric namespace whose job books the clients reconcile
// against: the daemon's own, or the gateway's exact cluster totals.
func (w *serviceWorkload) prefix() string {
	if w.cluster {
		return load.GatewayPrefix
	}
	return load.SppdPrefix
}

// reconcile holds the clients' tallies against the server's metric
// deltas over the timed loops. Every submit was answered, so:
//
//	submitted     = hot + cold + warm submits
//	deduplicated  = hot (resubmits of jobs still in the job table)
//	done          = cold + warm;  done_cached = cache_hits = store_hits = warm
//	rejected = failed = canceled = timeout = checkpointed = store_errors = 0
//	queued = running = 0 at the end
//
// and, through a gateway, submits = every submit and no proxy retry,
// backend eviction or unavailable answer.
func (w *serviceWorkload) reconcile(r *report, st *svcStats, delta, final load.Metrics) {
	p := w.prefix()
	hot, cold, warm := st.posts["hot"], st.posts["cold"], st.posts["warm"]
	want := []struct {
		name string
		n    int
	}{
		{p + "jobs_submitted_total", hot + cold + warm},
		{p + "jobs_deduplicated_total", hot},
		{p + "jobs_done_total", cold + warm},
		{p + "jobs_done_cached_total", warm},
		{p + "cache_hits_total", warm},
		{p + "store_hits_total", warm},
		{p + "jobs_rejected_total", 0},
		{p + "jobs_failed_total", 0},
		{p + "jobs_canceled_total", 0},
		{p + "jobs_timeout_total", 0},
		{p + "jobs_checkpointed_total", 0},
		{p + "store_errors_total", 0},
	}
	if w.cluster {
		want = append(want, []struct {
			name string
			n    int
		}{
			{"sppgw_submits_total", hot + cold + warm},
			{"sppgw_proxy_retries_total", 0},
			{"sppgw_backend_evictions_total", 0},
			{"sppgw_unavailable_total", 0},
		}...)
	}
	for _, c := range want {
		if got := int64(delta[c.name]); got != int64(c.n) {
			r.problem("reconcile: %s moved by %d, clients expect %d", c.name, got, c.n)
		}
	}
	for _, g := range []string{"jobs_queued", "jobs_running"} {
		if v := final[p+g]; v != 0 {
			r.problem("reconcile: %s%s = %v at rest, want 0", p, g, v)
		}
	}
}

func (s *svcStats) merge(o *svcStats) {
	s.ops += o.ops
	s.batchS = append(s.batchS, o.batchS...)
	s.batchCPU = append(s.batchCPU, o.batchCPU...)
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	for k, v := range o.submitMS {
		s.submitMS[k] = append(s.submitMS[k], v...)
	}
	for k, v := range o.resultMS {
		s.resultMS[k] = append(s.resultMS[k], v...)
	}
	s.polls = append(s.polls, o.polls...)
	s.queueWait = append(s.queueWait, o.queueWait...)
	for k, v := range o.coldBy {
		s.coldBy[k] += v
	}
	for k, v := range o.coldOwner {
		s.coldOwner[k] = v
	}
	for k, v := range o.posts {
		s.posts[k] += v
	}
	for k, v := range o.payloads {
		if len(s.payloads) < 64 {
			s.payloads[k] = v
		}
	}
}

// rate is completed operations per second of batch wall time.
func (s *svcStats) rate() float64 { return float64(s.ops) / sum(s.batchS) }

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"tradingfences/internal/serve"
)

var serveWorkload = &workload{
	name:   "serve",
	why:    "one closed-loop client against the in-process daemon; many tiny checks, rme and synth jobs where journal fsyncs, scheduling, checkpoints and the cache dominate",
	setup:  serveSetup,
	probe:  serveProbe,
	layers: serveLayers,
}

// serveIdent is one request identity of the catalogue with its known
// answer: a proof, a violation with a witness, or a synthesis frontier.
type serveIdent struct {
	req      serve.Request
	proved   bool
	minimal  [][]int // synth: every minimal safe placement
	frontier [][]int // synth: the Pareto frontier
}

func checkIdent(op, lock string, n int, model string, crashes int, proved bool) serveIdent {
	return serveIdent{req: serve.Request{Op: op, Lock: lock, N: n, Model: model, MaxCrashes: crashes}, proved: proved}
}

func synthIdent(lock, model string, minimal, frontier [][]int) serveIdent {
	return serveIdent{req: serve.Request{Op: serve.OpSynth, Lock: lock, N: 2, Model: model}, minimal: minimal, frontier: frontier}
}

// serveCatalogue lists the identities requests are drawn from. Verdicts of
// the n=2 checks follow the locks' documented models: each fenced variant
// is proved exactly under the models it is written for and violated under
// the weaker ones.
func serveCatalogue(small bool) []serveIdent {
	if small {
		return []serveIdent{
			checkIdent(serve.OpCheck, "peterson", 2, "pso", 0, true),
			checkIdent(serve.OpCheck, "peterson-tso", 2, "pso", 0, false),
			checkIdent(serve.OpRME, "rtas-unsafe", 2, "sc", 1, false),
			synthIdent("peterson", "tso", [][]int{{1}}, [][]int{{1}}),
		}
	}
	provedUnder := map[string][]string{
		"peterson":         {"sc", "tso", "pso"},
		"peterson-tso":     {"sc", "tso"},
		"peterson-nofence": {"sc"},
		"bakery":           {"sc", "tso", "pso"},
		"bakery-tso":       {"sc", "tso"},
		"bakery-nofence":   {"sc"},
		"bakery-literal":   nil,
	}
	// Each n=2 check is asked with and without symmetry reduction (an
	// identity field that never changes the verdict), which doubles the
	// small fresh jobs a pass holds and so the samples behind job_s_p50.
	var cat []serveIdent
	for _, lock := range []string{"peterson", "peterson-tso", "peterson-nofence", "bakery", "bakery-tso", "bakery-nofence", "bakery-literal"} {
		for _, model := range []string{"sc", "tso", "pso"} {
			for _, sym := range []bool{false, true} {
				id := checkIdent(serve.OpCheck, lock, 2, model, 0, slices.Contains(provedUnder[lock], model))
				id.req.Symmetry = sym
				cat = append(cat, id)
			}
		}
	}
	for _, model := range []string{"sc", "pso"} {
		cat = append(cat,
			checkIdent(serve.OpRME, "rtas", 2, model, 1, true),
			checkIdent(serve.OpRME, "rtas-unsafe", 2, model, 1, false),
			checkIdent(serve.OpRME, "rbakery", 2, model, 1, true))
	}
	cat = append(cat,
		synthIdent("peterson", "tso", [][]int{{1}}, [][]int{{1}}),
		synthIdent("peterson", "pso", [][]int{{0, 1}}, [][]int{{0, 1}}),
		synthIdent("bakery", "tso", [][]int{{0, 1}, {0, 2}}, [][]int{{0, 1}}),
		synthIdent("bakery", "pso", [][]int{{0, 1}}, [][]int{{0, 1}}),
		// The tail: n=3 proofs of about half a second to a second each,
		// run after the small requests and about a tenth of all requests,
		// so job_s_p95 falls inside it rather than on its edge, while a pass
		// stays short enough for a run to hold many passes.
		checkIdent(serve.OpCheck, "bakery", 3, "sc", 0, true),
		checkIdent(serve.OpCheck, "bakery-tso", 3, "sc", 0, true),
		checkIdent(serve.OpCheck, "tournament", 3, "sc", 0, true),
		checkIdent(serve.OpCheck, "tournament", 3, "tso", 0, true),
		checkIdent(serve.OpCheck, "tournament", 3, "pso", 0, true),
		checkIdent(serve.OpCheck, "bakery-tso", 3, "tso", 0, true),
		checkIdent(serve.OpRME, "rtas", 3, "sc", 1, true),
		checkIdent(serve.OpRME, "rbakery", 3, "sc", 0, true),
	)
	return cat
}

// requestList is a pass's request sequence, drawn with orderRand. First
// come the small identities, each once in a shuffled order, plus one repeat
// each of a random choice of them (40% of all requests), placed after the
// identity's first occurrence, so the result cache takes part. The n=3 tail
// proofs follow, once each, in catalogue order. Passes differ in the order
// of the small requests and in which of them repeat, never in how much
// fresh work of each kind they run.
func requestList(cat []serveIdent, rng *rand.Rand) []int {
	var small, tail []int
	for i, id := range cat {
		if id.req.N == 3 {
			tail = append(tail, i)
		} else {
			small = append(small, i)
		}
	}
	list := make([]int, 0, len(cat)*5/3)
	for _, k := range rng.Perm(len(small)) {
		list = append(list, small[k])
	}
	repeats := min(len(cat)*2/3, len(small))
	for _, k := range rng.Perm(len(small))[:repeats] {
		after := slices.Index(list, small[k]) + 1
		list = slices.Insert(list, after+rng.Intn(len(list)-after+1), small[k])
	}
	return append(list, tail...)
}

// A client polls its job's status every pollInterval for the first
// pollFastFor, then every pollSlow: small jobs keep millisecond resolution,
// and the second-long tail proofs do not load the CPUs the daemon runs on
// with a thousand status requests a second.
const (
	pollInterval = time.Millisecond
	pollFastFor  = 20 * time.Millisecond
	pollSlow     = 10 * time.Millisecond
)

func serveSetup(r *runner) (*pass, error) {
	cat := serveCatalogue(r.small)
	if r.corrupt {
		cat[0].proved = !cat[0].proved // a deliberately wrong known answer
	}
	list := requestList(cat, orderRand(r))
	dir, err := os.MkdirTemp(filepath.Join(r.out, "tmp"), "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dir, Pool: r.workers, DecisionLog: io.Discard})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	transport := &http.Transport{}
	c := &serveClient{r: r, base: hs.URL, http: &http.Client{Transport: transport}, first: map[int][]byte{}}
	return &pass{
		// One closed-loop client sends the list. With a second client, on
		// a host of a few CPUs, every job's time depends on which job the
		// other client happens to run: across five 35 s runs on a 2-vCPU
		// host, the median request's wall time spread (interquartile range
		// / median) 0.28 with two clients and 0.05 with one.
		run: func(r *runner, span int) []jobResult {
			out := make([]jobResult, len(list))
			for i, id := range list {
				out[i] = c.request("c0", span, id, cat[id])
			}
			return out
		},
		close: func() error {
			hs.Close()
			transport.CloseIdleConnections()
			srv.Drain()
			return os.RemoveAll(dir)
		},
	}, nil
}

// serveClient submits requests and polls them to a terminal status, the
// way a client of the daemon sees a job.
type serveClient struct {
	r    *runner
	base string
	http *http.Client

	first map[int][]byte // identity -> first result, canonical JSON
}

func (c *serveClient) request(client string, parent, ident int, want serveIdent) jobResult {
	c.r.sampleSpeed(false)
	job := c.r.newJob()
	name := fmt.Sprintf("%s %s-n%d/%s", want.req.Op, want.req.Lock, want.req.N, want.req.Model)
	span := c.r.tr.Begin("request", parent, job)
	t0 := time.Now()
	counts := map[string]float64{}
	view, resp, err := c.roundTrip(client, span, job, want.req)
	lat := time.Since(t0).Seconds()
	if err == nil {
		err = c.verify(ident, want, view.Result)
	}
	if span != 0 {
		counts["identity"] = float64(ident)
		counts["latency_ms"] = lat * 1e3
		switch {
		case resp.Cached:
			counts["cached"] = 1
		case resp.Dedup:
			counts["dedup"] = 1
		case view != nil && view.Started != nil && view.Finished != nil:
			counts["fresh"] = 1
			counts["queue_wait_ms"] = view.Started.Sub(view.Submitted).Seconds() * 1e3
			counts["run_ms"] = view.Finished.Sub(*view.Started).Seconds() * 1e3
			if want.req.Op == serve.OpCheck {
				counts["supervised"] = 1
				counts["attempts"] = float64(len(view.Attempts))
				for _, a := range view.Attempts {
					counts["checkpoints"] += float64(a.Checkpoints)
				}
			}
			if s := view.Result; s != nil && s.Synth != nil {
				s := s.Synth
				counts["synth"] = 1
				counts["oracle_calls"] = float64(s.OracleCalls)
				counts["oracle_states"] = float64(s.OracleStates)
				counts["candidates"] = float64(s.Candidates)
			}
		}
	}
	c.r.tr.End(span, counts)
	return jobResult{name: name, seconds: lat, err: err}
}

// roundTrip submits req and returns the job's terminal view.
func (c *serveClient) roundTrip(client string, span, job int, req serve.Request) (*serve.View, serve.SubmitResponse, error) {
	var resp serve.SubmitResponse
	body, err := json.Marshal(req)
	if err != nil {
		return nil, resp, err
	}
	id := c.r.tr.Begin("http.POST /v1/jobs", span, job)
	hreq, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, resp, err
	}
	hreq.Header.Set("X-Client-ID", client)
	code, err := c.do(hreq, &resp)
	c.r.tr.End(id, nil)
	if err != nil {
		return nil, resp, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, resp, fmt.Errorf("submit: HTTP %d", code)
	}
	if resp.Cached {
		return &serve.View{ID: resp.JobID, Status: resp.Status, Result: resp.Result}, resp, nil
	}
	start := time.Now()
	deadline := start.Add(jobTimeout)
	for {
		var v serve.View
		id := c.r.tr.Begin("http.GET /v1/jobs/{id}", span, job)
		hreq, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+resp.JobID, nil)
		if err != nil {
			return nil, resp, err
		}
		code, err := c.do(hreq, &v)
		c.r.tr.End(id, nil)
		if err != nil {
			return nil, resp, err
		}
		if code != http.StatusOK {
			return nil, resp, fmt.Errorf("poll: HTTP %d", code)
		}
		switch v.Status {
		case serve.StatusDone:
			return &v, resp, nil
		case serve.StatusFailed, serve.StatusAborted:
			return nil, resp, fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			return nil, resp, fmt.Errorf("job %s still %s after %v", v.ID, v.Status, jobTimeout)
		}
		if time.Since(start) < pollFastFor {
			time.Sleep(pollInterval)
		} else {
			time.Sleep(pollSlow)
		}
	}
}

func (c *serveClient) do(req *http.Request, into any) (int, error) {
	hr, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		return 0, err
	}
	if hr.StatusCode == http.StatusOK || hr.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, into); err != nil {
			return 0, fmt.Errorf("%s: %w", req.URL.Path, err)
		}
	}
	return hr.StatusCode, nil
}

// verify checks a result against the identity's known answer, and against
// the first result served for the identity in this pass.
func (c *serveClient) verify(ident int, want serveIdent, res *serve.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	switch want.req.Op {
	case serve.OpSynth:
		s := res.Synth
		if s == nil || !s.Complete {
			return fmt.Errorf("synth frontier missing or partial")
		}
		if got := sitesOf(s.Minimal); !reflect.DeepEqual(got, want.minimal) {
			return fmt.Errorf("minimal placements %v, want %v", got, want.minimal)
		}
		if got := sitesOf(s.Frontier); !reflect.DeepEqual(got, want.frontier) {
			return fmt.Errorf("frontier %v, want %v", got, want.frontier)
		}
	default:
		ck := res.Check
		switch {
		case ck == nil:
			return fmt.Errorf("check outcome missing")
		case want.proved && !ck.Proved:
			return fmt.Errorf("not proved (violated=%v mode=%s)", ck.Violated, ck.Mode)
		case !want.proved && !ck.Violated:
			return fmt.Errorf("no violation found (proved=%v)", ck.Proved)
		case !want.proved && ck.WitnessSchedule == "":
			return fmt.Errorf("violation without a witness")
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if first, ok := c.first[ident]; ok && !bytes.Equal(first, data) {
		return fmt.Errorf("reply differs from the identity's first reply")
	} else if !ok {
		c.first[ident] = data
	}
	return nil
}

func sitesOf(pts []serve.SynthPoint) [][]int {
	out := make([][]int, len(pts))
	for i, p := range pts {
		out[i] = p.Sites
	}
	return out
}

func serveLayers(spans []Span, passes int) map[string]float64 {
	var submit, wait, run, overhead []float64
	var reqs, cached, dedup, ran, attempts, ckpts float64
	var synthRun, synthJobs, calls, states, cands float64
	for _, s := range spansNamed(spans, "http.POST /v1/jobs") {
		submit = append(submit, s.dur()*1e3)
	}
	for _, s := range spansNamed(spans, "request") {
		c := s.Counts
		reqs++
		cached += c["cached"]
		dedup += c["dedup"]
		if c["fresh"] != 1 {
			continue
		}
		wait = append(wait, c["queue_wait_ms"])
		run = append(run, c["run_ms"])
		overhead = append(overhead, c["latency_ms"]-c["run_ms"])
		if c["synth"] == 1 {
			synthJobs++
			synthRun += c["run_ms"] / 1e3
			calls += c["oracle_calls"]
			states += c["oracle_states"]
			cands += c["candidates"]
		}
		ran += c["supervised"]
		attempts += c["attempts"]
		ckpts += c["checkpoints"]
	}
	m := map[string]float64{
		"serve.submit_ms_p50":           median(submit),
		"serve.queue_wait_ms_p50":       median(wait),
		"serve.queue_wait_ms_p95":       quantile(wait, 0.95),
		"serve.run_ms_p50":              median(run),
		"serve.overhead_ms_p50":         median(overhead),
		"serve.cache_hit_frac":          ratio(cached, reqs),
		"serve.dedup_frac":              ratio(dedup, reqs),
		"supervise.attempts_per_job":    ratio(attempts, ran),
		"supervise.checkpoints_per_job": ratio(ckpts, ran),
		"synth.run_s":                   ratio(synthRun, synthJobs),
		"synth.oracle_calls":            ratio(calls, synthJobs),
		"synth.oracle_states":           ratio(states, synthJobs),
		"synth.prune_frac":              1 - ratio(calls, cands),
	}
	if cands == 0 {
		m["synth.prune_frac"] = 0
	}
	ob, _ := perCall(spans, "serve.Outbox.Append")
	m["serve.outbox_append_ms"] = ob / 1e6
	return m
}

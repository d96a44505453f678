package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/popsim/popsize/internal/expt"
	"github.com/popsim/popsize/internal/jobs"
	"github.com/popsim/popsize/internal/pop"
	"github.com/popsim/popsize/internal/sweep"
)

// The service-quick workload: the -quick reproduction suite's grid at two
// trials per point (170 trials; the preset's four take twice as long)
// submitted to an in-process popsimd — jobs.Manager behind jobs.Server on
// an httptest listener — as two concurrent jobs sharing a pool of
// GOMAXPROCS slots. Each job is followed by one /records streaming reader
// while a status poller runs beside them, so reads sit next to the
// checkpoint writes; /summary is fetched at the end. Sweep scheduling,
// the expt trial closures, JSONL checkpointing and HTTP are all on the
// critical path; the engines run only at n ≤ 5·10³.
const (
	// serviceUnitS is the nominal cost of one session.
	serviceUnitS = 16.0
	// serviceTrials overrides the -quick preset's trials per point.
	serviceTrials = 2
	pollInterval  = 100 * time.Millisecond
	// sessionTimeout bounds one session so a stuck job fails the run
	// instead of hanging it.
	sessionTimeout = 150 * time.Second
)

// daemon is one in-process popsimd.
type daemon struct {
	m   *jobs.Manager
	srv *httptest.Server
}

func (d *daemon) close() {
	d.srv.Close()
	d.m.Close()
}

func runService(cfg config, tr *tracer) (*pass, error) {
	reqs, err := serviceRequests(cfg)
	if err != nil {
		return nil, err
	}
	units := cfg.units(serviceUnitS)
	p := &pass{}

	// Set-up: opening a state directory and starting the daemon on it.
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			d.close()
		}
	}()
	for i := 0; i < max(setupReps, units); i++ {
		settle()
		start := time.Now()
		m, err := jobs.NewManager(jobs.Config{
			Dir:     filepath.Join(cfg.dir, fmt.Sprintf("daemon-%d", i)),
			Resolve: expt.ResolvePoints,
		})
		if err != nil {
			return nil, err
		}
		d := &daemon{m: m, srv: httptest.NewServer(jobs.NewServer(m))}
		p.setup = append(p.setup, since(start))
		if i < units {
			daemons = append(daemons, d)
		} else {
			d.close()
		}
	}

	var sessions []*session
	start := time.Now()
	for _, d := range daemons {
		settle()
		s, err := runSession(d, reqs, tr)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
	}
	p.wall = since(start)

	var out []byte
	for i, s := range sessions {
		for _, j := range s.jobs {
			canon, err := checkJob(p, daemons[i], j)
			if err != nil {
				return nil, err
			}
			out = fmt.Appendf(out, "session %d job %d:\n", i, j.index)
			out = append(out, canon...)
			for _, r := range j.records {
				p.trials = append(p.trials, r.WallMS/1000)
			}
		}
	}
	p.output = out
	if tr != nil {
		p.layers = serviceLayers(sessions, p, daemons)
	}
	return p, nil
}

// serviceRequests splits the -quick suite's experiment ids into two jobs,
// alternating in catalog order. Per-trial seeds derive from the base seed
// and the point label alone, so the split leaves every record as the
// single-job suite would produce it.
func serviceRequests(cfg config) ([]sweep.SpecRequest, error) {
	seed := pop.TrialSeed(cfg.seed, "service", 0)
	if cfg.tiny {
		return []sweep.SpecRequest{
			{Experiments: []string{"F2"}, Ns: []int{128}, Trials: 2, Quick: true, Seed: seed},
			{Experiments: []string{"E1"}, Ns: []int{128}, Trials: 2, Quick: true, Seed: seed},
		}, nil
	}
	suite, err := expt.Resolve(sweep.SpecRequest{Quick: true})
	if err != nil {
		return nil, err
	}
	reqs := []sweep.SpecRequest{
		{Quick: true, Trials: serviceTrials, Seed: seed},
		{Quick: true, Trials: serviceTrials, Seed: seed},
	}
	for i, def := range suite.Defs {
		reqs[i%2].Experiments = append(reqs[i%2].Experiments, def.ID)
	}
	return reqs, nil
}

// session is one submission of the two jobs, followed to completion.
type session struct {
	wall      float64
	jobs      []*jobRun
	submitMS  []float64
	statusMS  []float64
	summaryMS []float64
	errors    int
}

type jobRun struct {
	index     int
	id        string
	submitted time.Time
	span      int
	records   []sweep.Record
	arrivals  []time.Time
	final     jobs.Status
}

// client issues the session's HTTP calls, timing each and counting
// failures; every call is a jobs.http span when traced.
type client struct {
	srv  *httptest.Server
	tr   *tracer
	mu   sync.Mutex
	errs int
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, float64, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.srv.Client().Do(req)
	end := time.Now()
	if c.tr != nil {
		c.tr.add(c.tr.root, "jobs.http", start, end)
	}
	if err == nil && resp.StatusCode/100 != 2 {
		resp.Body.Close()
		err = fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if err != nil {
		c.mu.Lock()
		c.errs++
		c.mu.Unlock()
		return nil, 0, err
	}
	return resp, end.Sub(start).Seconds() * 1000, nil
}

// getJSON issues a GET and decodes the JSON reply into v.
func (c *client) getJSON(ctx context.Context, path string, v any) (float64, error) {
	resp, ms, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return ms, json.NewDecoder(resp.Body).Decode(v)
}

func runSession(dm *daemon, reqs []sweep.SpecRequest, tr *tracer) (*session, error) {
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	c := &client{srv: dm.srv, tr: tr}
	s := &session{}
	start := time.Now()

	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		submitted := time.Now()
		resp, ms, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return nil, fmt.Errorf("submitting job %d: %w", i, err)
		}
		var st jobs.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding job %d status: %w", i, err)
		}
		j := &jobRun{index: i, id: st.ID, submitted: submitted, span: -1}
		if tr != nil {
			j.span = tr.add(tr.root, "job", submitted, submitted)
		}
		s.jobs = append(s.jobs, j)
		s.submitMS = append(s.submitMS, ms)
	}

	// One streaming reader per job, and a status poller beside them.
	var wg sync.WaitGroup
	readErrs := make([]error, len(s.jobs))
	for i, j := range s.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readErrs[i] = c.stream(ctx, j)
			if tr != nil {
				tr.close(j.span)
			}
		}()
	}
	stop := make(chan struct{})
	polled := make(chan []float64, 1)
	go func() { polled <- c.poll(ctx, s.jobs, stop) }()
	wg.Wait()
	close(stop)
	s.statusMS = <-polled
	if err := errors.Join(readErrs...); err != nil {
		return nil, fmt.Errorf("streaming records: %w", err)
	}

	for _, j := range s.jobs {
		if _, err := c.getJSON(ctx, "/v1/jobs/"+j.id, &j.final); err != nil {
			return nil, fmt.Errorf("job %s status: %w", j.id, err)
		}
		var summary any
		ms, err := c.getJSON(ctx, "/v1/jobs/"+j.id+"/summary", &summary)
		if err != nil {
			return nil, fmt.Errorf("job %s summary: %w", j.id, err)
		}
		s.summaryMS = append(s.summaryMS, ms)
	}
	s.wall = since(start)
	s.errors = c.errs
	if tr != nil {
		for _, j := range s.jobs {
			for k, r := range j.records {
				end := j.arrivals[k]
				tr.add(j.span, "sweep.trial", end.Add(-time.Duration(r.WallMS*float64(time.Millisecond))), end)
			}
		}
	}
	return s, nil
}

// stream reads a job's record stream until the job ends.
func (c *client) stream(ctx context.Context, j *jobRun) error {
	resp, _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+j.id+"/records", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("job %s: decoding record: %w", j.id, err)
		}
		j.records = append(j.records, r)
		j.arrivals = append(j.arrivals, time.Now())
	}
	return sc.Err()
}

// poll fetches every job's status each pollInterval until stop closes or
// every job is terminal, returning the call latencies in milliseconds.
func (c *client) poll(ctx context.Context, js []*jobRun, stop <-chan struct{}) []float64 {
	var lat []float64
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		terminal := 0
		for _, j := range js {
			var st jobs.Status
			ms, err := c.getJSON(ctx, "/v1/jobs/"+j.id, &st)
			if err == nil {
				lat = append(lat, ms)
				if st.State.Terminal() {
					terminal++
				}
			}
		}
		if terminal == len(js) {
			return lat
		}
		select {
		case <-stop:
			return lat
		case <-ctx.Done():
			return lat
		case <-tick.C:
		}
	}
}

// checkJob checks one finished job — done, every unit streamed, and the
// streamed record set canonically identical to the job's checkpoint file —
// and returns the canonical records.
func checkJob(p *pass, dm *daemon, j *jobRun) ([]byte, error) {
	p.check(j.final.State == jobs.StateDone, "job %d (%s): state %s %s", j.index, j.id, j.final.State, j.final.Error)
	p.check(len(j.records) == j.final.Units,
		"job %d (%s): streamed %d records for %d units", j.index, j.id, len(j.records), j.final.Units)
	streamed, err := sweep.CanonicalJSONL(j.records)
	if err != nil {
		return nil, err
	}
	fh, err := os.Open(dm.m.RecordsPath(j.id))
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	recs, err := sweep.ReadRecords(fh)
	if err != nil {
		return nil, fmt.Errorf("reading job %s checkpoint: %w", j.id, err)
	}
	stored, err := sweep.CanonicalJSONL(recs)
	if err != nil {
		return nil, err
	}
	p.check(bytes.Equal(streamed, stored),
		"job %d (%s): streamed records do not canonicalize to the checkpoint file's bytes", j.index, j.id)
	return streamed, nil
}

// serviceLayers derives the sweep, expt and jobs layer metrics of the
// traced pass from the sessions' records, HTTP timings and job status.
func serviceLayers(sessions []*session, p *pass, daemons []*daemon) map[string]float64 {
	m := map[string]float64{}
	var submit, status, summary, queue, first []float64
	busy, wall := 0.0, 0.0
	for i, s := range sessions {
		submit = append(submit, s.submitMS...)
		status = append(status, s.statusMS...)
		summary = append(summary, s.summaryMS...)
		m["jobs.http_errors"] += float64(s.errors)
		wall += s.wall
		for _, j := range s.jobs {
			if j.final.Started != nil {
				queue = append(queue, j.final.Started.Sub(j.final.Created).Seconds())
			}
			if len(j.arrivals) > 0 {
				first = append(first, j.arrivals[0].Sub(j.submitted).Seconds())
			}
			if fi, err := os.Stat(daemons[i].m.RecordsPath(j.id)); err == nil {
				m["jobs.checkpoint_bytes"] += float64(fi.Size())
			}
			for _, r := range j.records {
				sec := r.WallMS / 1000
				busy += sec
				m["sweep.records"]++
				m["expt.trial_s."+family(r.Experiment)] += sec
			}
		}
	}
	m["sweep.worker_busy_ratio"] = ratio(busy, float64(runtime.GOMAXPROCS(0))*wall)
	m["sweep.trial_s_p90"] = quantile(p.trials, 0.9)
	m["jobs.submit_ms"] = median(submit)
	m["jobs.status_ms"] = median(status)
	m["jobs.summary_ms"] = median(summary)
	m["jobs.queue_wait_s"] = mean(queue)
	m["jobs.first_record_s"] = mean(first)
	return m
}

// family is an experiment name's id family: the part before the first
// '/', or "other" for families outside the -quick catalog.
func family(experiment string) string {
	f, _, _ := strings.Cut(experiment, "/")
	for _, known := range exptFamilies {
		if f == known {
			return f
		}
	}
	return "other"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

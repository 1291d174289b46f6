package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/async"
	"repro/async/jobs"
)

// daemon is an in-process asyncd serving surface: a scheduler behind
// jobs.NewHandler on a loopback listener.
type daemon struct {
	sched  *jobs.Scheduler
	srv    *http.Server
	base   string
	served chan struct{}
}

func startDaemon(s *jobs.Scheduler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{sched: s, srv: &http.Server{Handler: jobs.NewHandler(s)},
		base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// close stops the scheduler first (ending event streams), then the server,
// and waits for the serve loop to return.
func (d *daemon) close() {
	_ = d.sched.Close()
	_ = d.srv.Close()
	<-d.served
}

// newClient returns an HTTP client that holds at most one connection: the
// benchmark's load comes from at most two of them.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// errRejected is a submission still refused with 503 after the bounded
// retries.
var errRejected = errors.New("submission rejected after retries")

const (
	submitRetries = 5
	retryBackoff  = 20 * time.Millisecond
)

// submit POSTs spec, retrying 503 backpressure a bounded number of times.
func submit(c *http.Client, base string, spec jobs.Spec) (jobs.ID, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var out struct {
				ID jobs.ID `json:"id"`
			}
			if err := json.Unmarshal(b, &out); err != nil {
				return "", err
			}
			return out.ID, nil
		case resp.StatusCode == http.StatusServiceUnavailable && attempt < submitRetries:
			time.Sleep(retryBackoff)
		case resp.StatusCode == http.StatusServiceUnavailable:
			return "", errRejected
		default:
			return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
	}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// listAfter pages through every retained job submitted after cursor.
func listAfter(c *http.Client, base string, cursor jobs.ID) ([]jobs.Job, error) {
	var all []jobs.Job
	for {
		var page struct {
			Jobs []jobs.Job `json:"jobs"`
			Next jobs.ID    `json:"next"`
		}
		if err := getJSON(c, fmt.Sprintf("%s/v1/jobs?limit=256&cursor=%s", base, cursor), &page); err != nil {
			return nil, err
		}
		all = append(all, page.Jobs...)
		if page.Next == "" {
			return all, nil
		}
		cursor = page.Next
	}
}

func getStats(c *http.Client, base string) (jobs.Stats, error) {
	var st jobs.Stats
	err := getJSON(c, base+"/v1/stats", &st)
	return st, err
}

// waitDone polls job snapshots until every listed job is terminal.
func waitDone(c *http.Client, base string, ids []jobs.ID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		for {
			var j jobs.Job
			if err := getJSON(c, base+"/v1/jobs/"+string(id), &j); err != nil {
				return err
			}
			if j.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s still %s after %v", id, j.State, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// streamEvents follows a job's Server-Sent Events until the stream ends,
// calling fn with each event's type, payload and arrival time.
func streamEvents(c *http.Client, base string, id jobs.ID, fn func(typ string, data []byte, at time.Time) error) error {
	resp, err := c.Get(base + "/v1/jobs/" + string(id) + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if err := fn(typ, []byte(line[len("data: "):]), time.Now()); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// jobSeq parses the submission ordinal that ends every job ID.
func jobSeq(id jobs.ID) int64 {
	s := string(id)
	n, _ := strconv.ParseInt(s[strings.LastIndexByte(s, '-')+1:], 10, 64)
	return n
}

// idBefore is the ID whose ordinal precedes id's: the list cursor that
// starts a page at id itself.
func idBefore(id jobs.ID) jobs.ID {
	s := string(id)
	i := strings.LastIndexByte(s, '-')
	return jobs.ID(fmt.Sprintf("%s-%06d", s[:i], jobSeq(id)-1))
}

// enginePool builds the daemon's engines through jobs.Config.NewEngine,
// timing each spin-up.
type enginePool struct {
	tr   *tracer
	seed int64

	mu      sync.Mutex
	spinups []float64
}

func (p *enginePool) newEngine(int) (*async.Engine, error) {
	start := time.Now()
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(p.seed))
	end := time.Now()
	p.tr.add("engines", "engine.spinup", start, end)
	p.mu.Lock()
	p.spinups = append(p.spinups, ms(end.Sub(start)))
	p.mu.Unlock()
	return eng, err
}

func (p *enginePool) medianSpinupMS() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return quantile(p.spinups, 0.5)
}

// spanSlack is the clock tolerance of the span additivity check.
const spanSlack = time.Millisecond

// jobSpans records a daemon job's spans as the client saw it — submit,
// queue wait, run, observation lag — and reports whether they add up to
// the latency from the POST: their sum exceeds it by exactly the part of
// the submit after the server stamped the job queued, which lies in
// [0, submit].
func jobSpans(tr *tracer, trace string, postStart, postEnd, observed time.Time, s jobs.Job) bool {
	qwait := time.Duration(s.QueueWaitMS * float64(time.Millisecond))
	tr.add(trace, "jobs.submit", postStart, postEnd)
	if s.Started.IsZero() {
		return false
	}
	tr.add(trace, "jobs.queue_wait", s.Started.Add(-qwait), s.Started)
	tr.add(trace, "jobs.run", s.Started, s.Finished)
	tr.add(trace, "jobs.observe_lag", s.Finished, observed)
	submit := postEnd.Sub(postStart)
	resid := submit + qwait + s.Finished.Sub(s.Started) + observed.Sub(s.Finished) - observed.Sub(postStart)
	return resid >= -spanSlack && resid <= submit+spanSlack
}

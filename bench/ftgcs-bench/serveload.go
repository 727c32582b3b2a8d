package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ftgcs"
	"ftgcs/internal/jobs"
	"ftgcs/internal/spec"
)

const (
	// A reply slower than these is a failed op, not a hung benchmark.
	freshTimeout = 60 * time.Second
	hitTimeout   = 10 * time.Second
	// lateWarnMs is the generator lateness above which the open-loop
	// client, not the server, limited the hit latencies.
	lateWarnMs = 5.0
	// untracedFreshBase offsets the fresh specs of a traced run's untraced
	// prefix, which may not repeat the traced prefix's.
	untracedFreshBase = 5000
	// serveNestSlack absorbs the clock difference between this process and
	// the server, whose job phases are copied into the span list.
	serveNestSlack = 5 * time.Millisecond
)

// serverProc is one ftgcs-serve child in its own process group.
type serverProc struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	store string
}

// children tracks live server children so that a panic, a signal or an
// early return can never leave one behind.
var children struct {
	sync.Mutex
	live map[*serverProc]bool
}

func killChildren() {
	children.Lock()
	live := children.live
	children.live = nil
	children.Unlock()
	for s := range live {
		s.kill()
	}
}

// startServer boots ftgcs-serve at its default flags on an ephemeral port
// with a fresh store directory, and waits for its listening line.
func startServer(cfg runConfig) (*serverProc, error) {
	store, err := os.MkdirTemp(cfg.workDir, "store-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.serveBin, "-addr", "127.0.0.1:0", "-store", store)
	// Own process group, so one kill reaches anything the server spawns;
	// Pdeathsig covers the harness being killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(store)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(store)
		return nil, fmt.Errorf("start %s: %w", cfg.serveBin, err)
	}
	s := &serverProc{cmd: cmd, store: store}
	children.Lock()
	if children.live == nil {
		children.live = map[*serverProc]bool{}
	}
	children.live[s] = true
	children.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ftgcs-serve listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("%s exited before listening", cfg.serveBin)
		}
		s.base = "http://" + a
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("%s did not print its listening line within 20 s", cfg.serveBin)
	}
	return s, nil
}

func (s *serverProc) kill() {
	syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	s.cmd.Wait()
	s.forget()
}

func (s *serverProc) forget() {
	os.RemoveAll(s.store)
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// stop asks the server to shut down (SIGTERM drains the write-behind
// store), reaps it, and returns its peak RSS and CPU time and how many
// objects its store holds. The store is removed afterwards.
func (s *serverProc) stop() (rssMB, cpuS float64, objects int, err error) {
	defer s.forget()
	s.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() { waited <- s.cmd.Wait() }()
	select {
	case err = <-waited:
	case <-time.After(20 * time.Second):
		syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
		<-waited
		return 0, 0, 0, fmt.Errorf("server ignored SIGTERM for 20 s")
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server exit: %w", err)
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB, cpuS = usage(ru)
	}
	err = filepath.WalkDir(s.store, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".obj") {
			objects++
		}
		return err
	})
	return rssMB, cpuS, objects, err
}

// serveSpec is the one spec shape serve_mix submits: a five-cluster line
// with the global-skew flood on, varying only in seed.
func serveSpec(cfg runConfig, seed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Topology:  spec.Topology{Name: "line", Size: 5},
		Physical:  spec.Physical{Rho: physRho, Delay: physDelay, Uncertainty: physUncertainty},
		Constants: &spec.Constants{C2: constC2, Eps: constEps},
		Seed:      seed,
		Drift:     driftName,
		Attack:    &spec.Attack{Name: attackName},
		Horizon:   spec.Horizon{Seconds: cfg.z.opSim},
	}
}

// hotSpec and freshSpec derive disjoint seeds from the base seed: hot
// specs take base·10⁶ + j, fresh ones base·10⁶ + 1000 + i.
func hotSpec(cfg runConfig, j int) spec.ScenarioSpec {
	return serveSpec(cfg, cfg.seed*1_000_000+int64(j))
}

func freshSpec(cfg runConfig, i int) spec.ScenarioSpec {
	return serveSpec(cfg, cfg.seed*1_000_000+1000+int64(i))
}

func requestBody(s spec.ScenarioSpec) []byte {
	b, err := json.Marshal(jobs.Request{Spec: s})
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return b
}

// jobReply is the slice of the server's job status the harness reads.
type jobReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Report ftgcs.Report `json:"report"`
	} `json:"result"`
}

// newConn returns a client that owns exactly one connection.
func newConn(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// doneReply decodes a reply that must be a completed job within bounds.
func doneReply(status int, data []byte) (jobReply, error) {
	var r jobReply
	if status != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, err
	}
	if r.State != "done" || r.Result == nil {
		return r, fmt.Errorf("state %q error %q", r.State, r.Error)
	}
	if !r.Result.Report.AllWithinBounds() {
		return r, fmt.Errorf("a skew bound is violated:\n%s", r.Result.Report)
	}
	return r, nil
}

// serveState is what a set-up hands to the measured window.
type serveState struct {
	srv *serverProc
	// hotBodies are the hot specs' request bodies, warmReplies the reply
	// each got when it was computed.
	hotBodies, warmReplies [][]byte
}

// serveSetup starts a server, announces it in `running` if that is not nil,
// and computes the hot specs on it, two at a time over two connections
// like the measured window.
func serveSetup(cfg runConfig, running *atomic.Pointer[serverProc]) (*serveState, error) {
	srv, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	if running != nil {
		running.Store(srv)
	}
	st := &serveState{srv: srv, hotBodies: make([][]byte, cfg.z.warm), warmReplies: make([][]byte, cfg.z.warm)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(freshTimeout)
			defer c.CloseIdleConnections()
			for j := g; j < cfg.z.warm; j += 2 {
				st.hotBodies[j] = requestBody(hotSpec(cfg, j))
				status, data, err := call(c, http.MethodPost, srv.base+"/v1/experiments?wait=true", st.hotBodies[j])
				if err == nil {
					_, err = doneReply(status, data)
				}
				if err != nil {
					errs[g] = fmt.Errorf("pre-warm hot spec %d: %w", j, err)
					return
				}
				st.warmReplies[j] = data
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			srv.kill()
			return nil, err
		}
	}
	return st, nil
}

// hitStats is what the interactive connection measured.
type hitStats struct {
	attempted, failed int
	lat, late         []float64  // ms: latency from the intended send time; generator lateness
	span              []interval // each hit, from its intended send time to its reply
}

// unfrozen drops the hits that met a server the host gauge had stopped:
// they are checked like any other but not timed, because their wait says
// nothing about the server.
func (hs hitStats) unfrozen(g *hostGauge) hitStats {
	kept := hitStats{attempted: hs.attempted, failed: hs.failed}
	for i, iv := range hs.span {
		if !g.wasFrozen(iv) {
			kept.lat, kept.late, kept.span = append(kept.lat, hs.lat[i]), append(kept.late, hs.late[i]), append(kept.span, iv)
		}
	}
	return kept
}

// hitLoop sends cache hits on the hot specs open-loop at a fixed interval
// until stop closes (or count hits were sent, when count > 0). Latency
// runs from the intended send time, so a stalled reply charges its delay
// to the hits queued behind it.
func hitLoop(cfg runConfig, st *serveState, opBase, count int, stop <-chan struct{}) hitStats {
	var hs hitStats
	c := newConn(hitTimeout)
	defer c.CloseIdleConnections()
	marker := []byte(`"cached":"memory",`)
	start := time.Now()
	for k := 0; count == 0 || k < count; k++ {
		intended := start.Add(time.Duration(k) * cfg.z.hitInterval)
		time.Sleep(time.Until(intended))
		select {
		case <-stop:
			return hs
		default:
		}
		hs.late = append(hs.late, ms(time.Since(intended)))
		j := k % len(st.hotBodies)
		sp := cfg.tr.begin("http.hit", -1, opBase+k)
		status, data, err := call(c, http.MethodPost, st.srv.base+"/v1/experiments?wait=true", st.hotBodies[j])
		cfg.tr.end(sp)
		done := time.Now()
		hs.lat = append(hs.lat, ms(done.Sub(intended)))
		hs.span = append(hs.span, interval{intended, done})
		hs.attempted++
		switch {
		case err != nil:
			err = fmt.Errorf("hit %d: %w", k, err)
		case status != http.StatusOK:
			err = fmt.Errorf("hit %d: status %d", k, status)
		case !bytes.Contains(data, marker):
			err = fmt.Errorf("hit %d was not served from the memory cache: %s", k, data)
		case !bytes.Equal(bytes.Replace(data, marker, nil, 1), st.warmReplies[j]):
			err = fmt.Errorf("hit %d body differs from the reply that computed it", k)
		}
		if err != nil {
			hs.failed++
			cfg.logf("FAILED %v", err)
		}
	}
	return hs
}

// serveExtras is what only a traced run collects from the batch
// connection.
type serveExtras struct {
	submitMs                          []float64
	buildingMs, storingMs, runningSec []float64
}

// serveMeasure runs the measured window: n fresh experiments on the batch
// connection, cfg.z.inflight kept submitted, each collected with a
// blocking GET; cache hits on the interactive connection for as long as
// fresh work is outstanding. Fresh experiment first+i is op i and one row.
func serveMeasure(cfg runConfig, st *serveState, first, n int, led *opLedger, chk *checker, out *outcome) (hitStats, serveExtras) {
	type pending struct {
		op, root int
		id       string
		sent     time.Time
	}
	var (
		queue []pending
		ex    serveExtras
		hits  hitStats
	)
	base := st.srv.base
	batch := newConn(freshTimeout)
	defer batch.CloseIdleConnections()
	stop, hitsDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hitsDone)
		hits = hitLoop(cfg, st, n, 0, stop)
	}()

	start := time.Now()
	submit := func(i int) {
		root := cfg.tr.begin("op", -1, i)
		sp := cfg.tr.begin("http.submit", root, i)
		sent := time.Now()
		status, data, err := call(batch, http.MethodPost, base+"/v1/experiments", requestBody(freshSpec(cfg, first+i)))
		cfg.tr.end(sp)
		ex.submitMs = append(ex.submitMs, ms(time.Since(sent)))
		var r jobReply
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			led.fail(i, i+1, "submit: %v", err)
			cfg.tr.end(root)
			return
		}
		queue = append(queue, pending{op: i, root: root, id: r.ID, sent: sent})
	}
	collect := func() {
		p := queue[0]
		queue = queue[1:]
		sp := cfg.tr.begin("http.wait", p.root, p.op)
		status, data, err := call(batch, http.MethodGet, base+"/v1/experiments/"+p.id+"?wait=true", nil)
		now := time.Now()
		cfg.tr.end(sp)
		cfg.tr.end(p.root)
		out.timed = append(out.timed, interval{p.sent, now})
		r, err2 := doneReply(status, data)
		if err == nil {
			err = err2
		}
		if err != nil {
			led.fail(p.op, p.op+1, "collect: %v", err)
			return
		}
		rep := r.Result.Report
		out.events += rep.Events
		chk.row(p.op+1, rep.MaxIntraClusterSkew, rep.MaxLocalSkew, rep.MaxGlobalSkew)
		if cfg.tr != nil {
			jobPhases(cfg, batch, base, p.id, p.root, p.op, &ex)
		}
	}
	for i := 0; i < n; i++ {
		if len(queue) == cfg.z.inflight {
			collect()
		}
		submit(i)
	}
	for len(queue) > 0 {
		collect()
	}
	out.window = []interval{{start, time.Now()}}
	chk.finish(n)
	close(stop)
	<-hitsDone
	out.units = n
	out.attempted = n + hits.attempted
	return hits, ex
}

// jobPhases copies the server's own lifecycle trace of a finished job
// into the span list, under the op that submitted it.
func jobPhases(cfg runConfig, c *http.Client, base, id string, root, op int, ex *serveExtras) {
	status, data, err := call(c, http.MethodGet, base+"/v1/experiments/"+id+"/trace", nil)
	var info jobs.TraceInfo
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(data, &info)
	}
	if err != nil || status != http.StatusOK {
		cfg.logf("no trace for %s: status %d err %v", id, status, err)
		return
	}
	for _, s := range info.Spans {
		d := time.Duration(s.Duration * float64(time.Second))
		name := s.Name
		switch {
		case name == "building":
			ex.buildingMs = append(ex.buildingMs, ms(d))
		case name == "storing":
			// Write-behind: it ends after the reply that closes the op, so
			// it is a metric but not a span inside the op.
			ex.storingMs = append(ex.storingMs, ms(d))
			continue
		case strings.HasPrefix(name, "running"):
			name = "running"
			ex.runningSec = append(ex.runningSec, d.Seconds())
		}
		cfg.tr.add("jobs."+name, s.Start, d, root, op)
	}
}

// serveRecheck recomputes one spec in this process and requires the
// server's report for it to be identical, whatever the seed.
func serveRecheck(s spec.ScenarioSpec, served ftgcs.Report) error {
	sc, err := s.Compile(nil)
	if err != nil {
		return err
	}
	rep, err := sc.Run()
	if err != nil {
		return err
	}
	if rep != served {
		return fmt.Errorf("served report differs from an in-process run:\nserved  %+v\nlocal   %+v", served, rep)
	}
	return nil
}

// serveFinish stops the server, checks that the store holds one object
// per distinct completed job, and re-checks the first hot spec against an
// in-process run.
func serveFinish(cfg runConfig, st *serveState, distinct int, led *opLedger, out *outcome) error {
	var warm jobReply
	if err := json.Unmarshal(st.warmReplies[0], &warm); err != nil {
		return err
	}
	if err := serveRecheck(hotSpec(cfg, 0), warm.Result.Report); err != nil {
		led.fail(0, len(led.bad), "%v", err)
	}
	rss, cpu, objects, err := st.srv.stop()
	if err != nil {
		return err
	}
	out.peakRSSMB, out.cpuS = rss, cpu
	if led.failed() == 0 && objects != distinct {
		led.fail(0, len(led.bad), "the store holds %d objects after shutdown, want one per distinct completed job (%d)", objects, distinct)
	}
	return nil
}

func warnLate(cfg runConfig, hs hitStats) float64 {
	p99 := quantile(hs.late, 0.99)
	if p99 > lateWarnMs {
		cfg.logf("WARNING: the hit generator ran up to %.1f ms late (p99): the harness, not the server, limited the hit latencies of this run", p99)
	}
	return p99
}

// runServe is the end-to-end run of serve_mix. The work happens in the
// server's process and leaves no gap between ops, so the host gauge
// samples on a timer, all through the set-ups and the measured window, and
// the server is stopped (SIGSTOP) for the ten milliseconds of each sample.
func runServe(cfg runConfig) (outcome, error) {
	n := cfg.z.ops(cfg.seconds)
	out := outcome{host: cfg.host}
	var srv atomic.Pointer[serverProc]
	var frozen *serverProc
	stopGauge := cfg.host.track(func() {
		if frozen = srv.Load(); frozen == nil {
			return // between two set-ups there is no server to stop
		}
		pid := frozen.cmd.Process.Pid
		if syscall.Kill(-pid, syscall.SIGSTOP) == nil {
			// Returns once every thread of the server has stopped.
			var ws syscall.WaitStatus
			syscall.Wait4(pid, &ws, syscall.WUNTRACED, nil)
		}
	}, func() {
		if frozen != nil {
			syscall.Kill(-frozen.cmd.Process.Pid, syscall.SIGCONT)
		}
	})
	defer stopGauge()
	var st *serveState
	for s := 0; s < cfg.z.setups; s++ {
		if st != nil {
			srv.Store(nil)
			st.srv.kill()
		}
		t0 := time.Now()
		var err error
		if st, err = serveSetup(cfg, &srv); err != nil {
			return out, err
		}
		out.setups = append(out.setups, interval{t0, time.Now()})
	}
	out.serveArgv = st.srv.cmd.Args
	led := newLedger(n, cfg.logf)
	chk := newChecker(cfg.want, cfg.z.pinRows, led)
	hits, _ := serveMeasure(cfg, st, 0, n, led, chk, &out)
	stopGauge()
	hits = hits.unfrozen(cfg.host)
	out.tailMs = hits.lat
	warnLate(cfg, hits)
	if err := serveFinish(cfg, st, cfg.z.warm+len(out.timed), led, &out); err != nil {
		return out, err
	}
	out.failed = led.failed() + hits.failed
	out.pins, out.pinned = chk.got, chk.checked
	return out, nil
}

// scrape reads the server's Prometheus exposition into a map keyed by the
// sample's full name (labels included) and times the request.
func scrape(c *http.Client, base string) (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	status, data, err := call(c, http.MethodGet, base+"/metrics", nil)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if status != http.StatusOK {
		return nil, d, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, d, nil
}

// histMeanMs is the mean (ms) of the observations a histogram took
// between two scrapes, from its exact _sum and _count series.
func histMeanMs(before, after map[string]float64, name, labels string) float64 {
	n := after[name+"_count"+labels] - before[name+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"+labels] - before[name+"_sum"+labels]) / n * 1e3
}

// runServeTraced is the per-layer run: hits against the idle server, the
// first quarter of the fresh list untraced (on specs of its own), then
// the same quarter traced, with a scrape of the server's own metrics
// around each phase.
func runServeTraced(cfg runConfig) (outcome, error) {
	n := max(4, cfg.z.ops(cfg.seconds)/4)
	layer := map[string]float64{}
	st, err := serveSetup(cfg, nil)
	if err != nil {
		return outcome{}, err
	}
	defer func() {
		if st != nil {
			st.srv.kill()
		}
	}()
	mc := newConn(hitTimeout)
	defer mc.CloseIdleConnections()
	const post = `{route="POST /v1/experiments",status="2xx"}`

	plain := cfg
	plain.tr = nil
	s0, _, err := scrape(mc, st.srv.base)
	if err != nil {
		return outcome{}, err
	}
	solo := hitLoop(plain, st, 0, cfg.z.soloHits, nil)
	s1, _, err := scrape(mc, st.srv.base)
	if err != nil {
		return outcome{}, err
	}
	layer["http.hit_solo_p50_ms"] = median(solo.lat)
	layer["http.server_hit_mean_ms"] = histMeanMs(s0, s1, "ftgcs_http_request_duration_seconds", post)

	var ref outcome
	led := newLedger(n, cfg.logf)
	refHits, _ := serveMeasure(plain, st, untracedFreshBase, n, led, newChecker(nil, cfg.z.pinRows, led), &ref)

	s2, _, err := scrape(mc, st.srv.base)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	chk := newChecker(cfg.want, cfg.z.pinRows, led)
	hits, ex := serveMeasure(cfg, st, 0, n, led, chk, &out)
	s3, scrapeDur, err := scrape(mc, st.srv.base)
	if err != nil {
		return outcome{}, err
	}
	out.serveArgv = st.srv.cmd.Args
	err = serveFinish(cfg, st, cfg.z.warm+len(ref.timed)+len(out.timed), led, &out)
	st = nil
	if err != nil {
		return out, err
	}
	out.failed = led.failed() + solo.failed + refHits.failed + hits.failed
	out.pins, out.pinned = chk.got, chk.checked

	layer["trace.overhead_ratio"] = ref.rate(nil) / out.rate(nil)
	layer["system.events"] = float64(out.events)
	if out.events > 0 {
		var running float64
		for _, s := range ex.runningSec {
			running += s
		}
		layer["system.ns_per_event"] = running * 1e9 / float64(out.events)
		layer["system.ms_per_sim_s"] = running * 1e3 / (float64(len(ex.runningSec)) * cfg.z.opSim)
	}
	layer["jobs.queue_wait_mean_ms"] = histMeanMs(s2, s3, "ftgcs_jobs_queue_wait_seconds", "")
	layer["jobs.run_mean_ms"] = histMeanMs(s2, s3, "ftgcs_jobs_run_duration_seconds", `{outcome="done"}`)
	layer["jobs.phase_building_ms"] = mean(ex.buildingMs)
	layer["jobs.phase_storing_ms"] = mean(ex.storingMs)
	layer["jobs.coalesced"] = s3["ftgcs_jobs_coalesced_total"] - s2["ftgcs_jobs_coalesced_total"]
	layer["http.hit_loaded_p50_ms"] = median(hits.lat)
	layer["http.hit_loaded_p99_ms"] = quantile(hits.lat, 0.99)
	layer["http.submit_202_p50_ms"] = median(ex.submitMs)
	layer["http.server_post_mean_ms"] = histMeanMs(s2, s3, "ftgcs_http_request_duration_seconds", post)
	layer["http.late_p99_ms"] = warnLate(cfg, hits)
	layer["cas.puts"] = s3["ftgcs_store_puts_total"]
	layer["cas.bytes_written"] = s3["ftgcs_store_written_bytes_total"]
	layer["telemetry.scrape_ms"] = ms(scrapeDur)
	out.layer = layer
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"cutfit"
)

// proc is one daemon or worker process the benchmark started. Its stderr
// and stdout go to a log file under the output directory.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	url  string
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// liveProcs is every process started and not yet stopped, for the signal
// handler: an interrupted benchmark must not leave daemons behind.
var liveProcs struct {
	sync.Mutex
	m map[*proc]struct{}
}

func killAllProcs() {
	liveProcs.Lock()
	ps := make([]*proc, 0, len(liveProcs.m))
	for p := range liveProcs.m {
		ps = append(ps, p)
	}
	liveProcs.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc launches binDir/bin listening on a fresh loopback port, with
// its output captured in outDir/logName.
func startProc(binDir, bin, outDir, logName string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(outDir, logName))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark itself is killed outright the kernel takes the
	// children down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{name: logName, cmd: cmd, log: logf, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries no news
		close(p.exited)
	}()
	liveProcs.Lock()
	if liveProcs.m == nil {
		liveProcs.m = make(map[*proc]struct{})
	}
	liveProcs.m[p] = struct{}{}
	liveProcs.Unlock()
	return p, nil
}

// stop kills the process and waits until it has ended. Nothing the
// benchmark boots holds state worth a graceful shutdown.
func (p *proc) stop() {
	if p == nil {
		return
	}
	liveProcs.Lock()
	_, live := liveProcs.m[p]
	delete(liveProcs.m, p)
	liveProcs.Unlock()
	if !live {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.log.Close()
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// waitHealthy polls path until it answers 200, the process dies, or ten
// seconds pass.
func (p *proc) waitHealthy(hc *http.Client, path string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		default:
		}
		resp, err := hc.Get(p.url + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after 10s", p.name)
}

// fleet is the set of processes a daemon workload or probe talks to: a
// plain local cutfitd and, when dist is set, a coordinator cutfitd with two
// cutfit-worker processes behind it.
type fleet struct {
	hc      *http.Client
	local   *proc
	coord   *proc
	workers []*proc
}

const graphName = "g"

// bootFleet starts the processes and waits for each to answer its health
// endpoint. tag prefixes the log file names.
func bootFleet(e *env, tag string, dist bool) (*fleet, error) {
	c := &fleet{hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var err error
	if c.local, err = startProc(e.binDir, "cutfitd", e.outDir, tag+"-cutfitd-local.log"); err != nil {
		return nil, err
	}
	if dist {
		var urls []string
		for i := 0; i < 2; i++ {
			w, err := startProc(e.binDir, "cutfit-worker", e.outDir, fmt.Sprintf("%s-worker%d.log", tag, i))
			if err != nil {
				return nil, err
			}
			c.workers = append(c.workers, w)
			urls = append(urls, w.url)
		}
		if c.coord, err = startProc(e.binDir, "cutfitd", e.outDir, tag+"-cutfitd-coord.log", "-workers", strings.Join(urls, ",")); err != nil {
			return nil, err
		}
		for _, w := range c.workers {
			if err := w.waitHealthy(c.hc, "/dist/v1/healthz"); err != nil {
				return nil, err
			}
		}
		if err := c.coord.waitHealthy(c.hc, "/healthz"); err != nil {
			return nil, err
		}
	}
	if err := c.local.waitHealthy(c.hc, "/healthz"); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

func (c *fleet) close() {
	if c == nil {
		return
	}
	c.coord.stop()
	for _, w := range c.workers {
		w.stop()
	}
	c.local.stop()
	c.hc.CloseIdleConnections()
}

// distProcs are the processes that make up the distributed system under
// test: the coordinator and its workers (the local daemon is the reference).
func (c *fleet) distProcs() []*proc { return append([]*proc{c.coord}, c.workers...) }

func cpuSecsOf(ps []*proc) (float64, error) {
	var t float64
	for _, p := range ps {
		s, err := procCPUSecs(p.pid())
		if err != nil {
			return 0, err
		}
		t += s
	}
	return t, nil
}

func peakRSSMiBOf(ps []*proc) (float64, error) {
	var t float64
	for _, p := range ps {
		m, err := procPeakRSSMiB(p.pid())
		if err != nil {
			return 0, err
		}
		t += m
	}
	return t, nil
}

// post sends a JSON body and returns the status and the whole reply.
func (c *fleet) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *fleet) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *fleet) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// register uploads the graph text to daemon p under graphName and returns
// how long the daemon took to answer, in milliseconds.
func (c *fleet) register(ctx context.Context, p *proc, text []byte) (float64, error) {
	body, err := json.Marshal(map[string]string{"name": graphName, "edges": string(text)})
	if err != nil {
		return 0, err
	}
	t := time.Now()
	status, reply, err := c.post(ctx, p.url+"/v1/graphs", body)
	ms := msSince(t)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("register on %s: status %d: %s", p.name, status, reply)
	}
	return ms, nil
}

func (c *fleet) scrape(ctx context.Context, p *proc) (promSample, error) {
	status, data, err := c.get(ctx, p.url+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", p.name, status)
	}
	return parseProm(bytes.NewReader(data))
}

func (c *fleet) cacheStats(ctx context.Context, p *proc) (cutfit.CacheStats, error) {
	var st cutfit.CacheStats
	status, data, err := c.get(ctx, p.url+"/v1/stats")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("stats %s: status %d", p.name, status)
	}
	return st, json.Unmarshal(data, &st)
}

// request is one call of a round: the class it is timed under, the path
// and the JSON body.
type request struct {
	class string
	path  string
	body  []byte
}

func runRequest(alg string) request {
	body := fmt.Sprintf(`{"graph":%q,"alg":%q,"strategy":%q,"parts":%d`, graphName, alg, fixedStrategy, numParts)
	switch alg {
	case "pagerank":
		body += fmt.Sprintf(`,"iters":%d`, pagerankIters)
	case "cc", "dynamicpr":
		body += `,"iters":0` // run to convergence
	}
	return request{class: alg, path: "/v1/run", body: []byte(body + "}")}
}

// serveRound is the fixed request sequence of one serve-hot round.
func serveRound() []request {
	var rs []request
	for _, a := range algNames {
		rs = append(rs, runRequest(a))
	}
	return append(rs,
		request{"advise", "/v1/advise", []byte(fmt.Sprintf(`{"graph":%q,"alg":"pagerank","parts":%d}`, graphName, numParts))},
		request{"measure", "/v1/metrics", []byte(fmt.Sprintf(`{"graph":%q,"strategy":%q,"parts":%d}`, graphName, fixedStrategy, numParts))},
	)
}

// distRound is the request sequence of one dist-2w round.
func distRound() []request {
	var rs []request
	for _, a := range distAlgs {
		rs = append(rs, runRequest(a))
	}
	return rs
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

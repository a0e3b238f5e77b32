package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"hisvsim/internal/cluster"
	"hisvsim/internal/obs"
	"hisvsim/internal/service"
)

// server is one in-process hisvsimd listener on loopback, wired as
// cmd/hisvsimd wires it: the handler behind obs.InstrumentHTTP.
type server struct {
	URL  string
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

func listen(reg *obs.Registry, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: obs.InstrumentHTTP(reg, "hisvsim_", nil, h), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // in-flight requests are the benchmark's own; none remain
	<-s.done
}

// fleet is the system under test: one service (direct), or a coordinator in
// front of two single-slot workers (cluster). Clients talk to URL.
type fleet struct {
	once     sync.Once
	URL      string
	services []*service.Service
	servers  []*server // workers first, coordinator last
	coord    *cluster.Coordinator
	client   *client
}

// bootFleet starts the fleet and waits until every listener answers
// /readyz. Service workers never exceed nproc.
func bootFleet(ctx context.Context, clustered bool) (*fleet, error) {
	f := &fleet{}
	nodes, pool := 1, runtime.NumCPU()
	if clustered {
		nodes, pool = 2, 1
	}
	var urls []string
	for i := 0; i < nodes; i++ {
		svc := service.New(service.Config{Workers: pool})
		f.services = append(f.services, svc)
		s, err := listen(svc.Metrics(), service.NewHandler(svc))
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		urls = append(urls, s.URL)
	}
	f.URL = urls[0]
	if clustered {
		coord, err := cluster.New(cluster.Config{Workers: urls})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		f.coord = coord
		s, err := listen(coord.Metrics(), cluster.NewHandler(coord))
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		f.URL = s.URL
	}
	f.client = newClient()
	for _, s := range f.servers {
		if err := f.client.ready(ctx, s.URL); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// close stops every listener, the coordinator and the services, waiting
// for each.
func (f *fleet) close() { f.once.Do(f.shutdown) }

func (f *fleet) shutdown() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, s := range f.services {
		s.Close()
	}
	if f.client != nil {
		f.client.close()
	}
}

// stats sums the services' simulation and cache counters.
func (f *fleet) stats() service.Stats {
	var out service.Stats
	for _, s := range f.services {
		st := s.Stats()
		out.Simulations += st.Simulations
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
	}
	return out
}

// refusals counts submissions any listener answered with 429 or 503,
// read from each listener's /metrics exposition.
func (f *fleet) refusals(ctx context.Context) (int, error) {
	n := 0
	for _, s := range f.servers {
		fams, err := f.client.metrics(ctx, s.URL)
		if err != nil {
			return 0, err
		}
		for _, fam := range fams {
			if fam.Name != "hisvsim_http_requests_total" {
				continue
			}
			for _, sm := range fam.Samples {
				if c := sm.Label("code"); c == "429" || c == "503" {
					n += int(sm.Value)
				}
			}
		}
	}
	return n, nil
}

// ---- HTTP client -----------------------------------------------------------

// client is the load generator's HTTP side: one keep-alive transport.
type client struct {
	tr *http.Transport
	c  *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	return &client{tr: tr, c: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) ready(ctx context.Context, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, err := c.get(ctx, base+"/readyz")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (status %d, err %v)", base, code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *client) metrics(ctx context.Context, base string) ([]*obs.MetricFamily, error) {
	code, body, err := c.get(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, code)
	}
	return obs.ParseText(bytes.NewReader(body))
}

// submitWait posts one job and long-polls its result. It returns the job
// ID and the raw final job body (status "done"); any other outcome is an
// error. The caller times the call: submit → result bytes read.
//
// With a recorder, the submit and the result long-poll are spans under
// parent.
func (c *client) submitWait(ctx context.Context, base string, body []byte, rec *recorder, reqID string, parent int) (string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := rec.start("http.submit", reqID, parent)
	code, raw, err := c.do(req)
	rec.end(sp)
	if err != nil {
		return "", nil, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted {
		return "", nil, fmt.Errorf("submit: status %d: %s", code, strings.TrimSpace(string(raw)))
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
		return "", nil, fmt.Errorf("submit: bad accept body %q", raw)
	}
	sp = rec.start("http.result", reqID, parent)
	defer rec.end(sp)
	for {
		code, raw, err = c.get(ctx, base+"/v1/jobs/"+acc.ID+"/result?wait=60s")
		if err != nil {
			return acc.ID, nil, fmt.Errorf("result: %w", err)
		}
		switch code {
		case http.StatusAccepted:
			continue // still running: re-arm the long poll
		case http.StatusOK:
			var st struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				return acc.ID, nil, fmt.Errorf("result: %w", err)
			}
			if st.Status != "done" {
				return acc.ID, nil, fmt.Errorf("job %s %s: %s", acc.ID, st.Status, st.Error)
			}
			return acc.ID, raw, nil
		default:
			return acc.ID, nil, fmt.Errorf("result: status %d: %s", code, strings.TrimSpace(string(raw)))
		}
	}
}

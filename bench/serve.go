package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// target is one study-backed request and what its response must carry.
type target struct {
	path     string
	cfg      core.Config // as the server resolves ?seed at scale=small
	endpoint string      // the server's ETag endpoint name
	format   string
	// experiment bodies are repro/v1 envelopes carrying build timings.
	experiment bool
}

func newTarget(seed uint64, endpoint, format string) target {
	path := "/v1/" + endpoint
	experiment := false
	if id, ok := strings.CutPrefix(endpoint, "experiment/"); ok {
		path = "/v1/experiments/" + id
		experiment = true
	}
	path += "?seed=" + strconv.FormatUint(seed, 10)
	if format != "json" {
		path += "&format=" + format
	}
	// The server builds ?scale=small when no scale is given.
	cfg := core.Config{Seed: seed, Entities: fullSizes.entities, DirectoryHosts: fullSizes.dirHosts, CatalogN: fullSizes.entities}
	return target{path: path, cfg: cfg, endpoint: endpoint, format: format, experiment: experiment}
}

// hotEndpoints is serve-warm's per-seed hot set.
var hotEndpoints = [][2]string{
	{"experiment/fig3", "json"},
	{"experiment/fig6", "json"},
	{"experiment/table2", "json"},
	{"demand/yelp", "json"},
	{"demand/yelp", "csv"},
	{"spread/banks/phone", "json"},
}

// coldEndpoints is what serve-coldscan cycles through, one cold build
// each: an experiment, a demand table and a spread curve.
var coldEndpoints = [][2]string{
	{"experiment/fig3", "json"},
	{"demand/yelp", "json"},
	{"spread/banks/phone", "json"},
}

// server is a serve.Server listening on loopback.
type server struct {
	srv  *serve.Server
	base string
	done chan error
}

func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Options{Workers: workers, Logger: slog.New(slog.DiscardHandler)}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Start(ln) }()
	return s, nil
}

// close shuts the server down and waits for its serve loop to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// response is what one request returned.
type response struct {
	status     int
	etag, hash string // ETag and X-Config-Hash headers
}

// get sends one GET (conditional when etag is non-empty), reads the
// body into buf and returns the status, headers and the time from
// sending the request to reading the last body byte.
func get(client *http.Client, url, etag string, buf *bytes.Buffer) (response, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return response{}, 0, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return response{}, time.Since(t0), err
	}
	_, err = buf.ReadFrom(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return response{}, d, err
	}
	return response{resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("X-Config-Hash")}, d, nil
}

// check verifies a 200 response's headers against the target: the ETag
// is the config-derived one and X-Config-Hash is the benchmark's own
// cfg.Hash().
func (t target) check(r response) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d, want 200", t.path, r.status)
	}
	if want := serve.ETagFor(t.cfg, t.endpoint, t.format); r.etag != want {
		return fmt.Errorf("%s: ETag %s, want %s", t.path, r.etag, want)
	}
	if want := t.cfg.Hash(); r.hash != want {
		return fmt.Errorf("%s: X-Config-Hash %s, want %s", t.path, r.hash, want)
	}
	return nil
}

// warmBench is serve-warm: closed-loop clients over a hot set that fits
// the study LRU, every other round conditional.
type warmBench struct {
	srv    *server
	client *http.Client
	hot    []target
	bodies [][]byte // reference body per hot target
	bufs   []bytes.Buffer
}

// hotSet is every hot endpoint of warmSeeds study seeds derived from
// seed and stream.
func hotSet(sz sizes, seed uint64, stream string) []target {
	var hot []target
	for s := 0; s < sz.warmSeeds; s++ {
		seed := derive(seed, stream, s)
		for _, e := range hotEndpoints {
			hot = append(hot, newTarget(seed, e[0], e[1]))
		}
	}
	return hot
}

// prepareServeWarm's set-up starts a server and warms a hot set. The
// timed set-ups warm the hot set of one fixed pair of seeds, not the
// pair derived from --seed, because build cost depends strongly on the
// seed and set-up time should not swing with it; each must reproduce
// the previous one's bodies. Then, untimed, a fresh server warms the
// measured hot set, keeping each body as the reference.
func prepareServeWarm(p params) (bench, []time.Duration, error) {
	const clients = 2
	fixed := hotSet(p.sz, 0, "warm-setup")
	var (
		setups []time.Duration
		prev   [][32]byte
	)
	for i := 0; i < p.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		b, digests, err := startWarm(fixed, clients)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, nil, err
		}
		if prev != nil && !slices.Equal(digests, prev) {
			err = errors.New("hot set bodies changed between set-ups")
		}
		if err := errors.Join(err, b.close()); err != nil {
			return nil, nil, err
		}
		prev = digests
	}
	b, _, err := startWarm(hotSet(p.sz, p.seed, "warm"), clients)
	if err != nil {
		return nil, nil, err
	}
	return b, setups, nil
}

// startWarm starts a server and warms hot on it, returning every body's
// digest; on error the server is already shut down.
func startWarm(hot []target, clients int) (*warmBench, [][32]byte, error) {
	srv, err := startServer(0)
	if err != nil {
		return nil, nil, err
	}
	b := &warmBench{srv: srv, client: newClient(clients), hot: hot, bufs: make([]bytes.Buffer, clients)}
	digests, err := b.warm()
	if err != nil {
		return nil, nil, errors.Join(err, b.close())
	}
	return b, digests, nil
}

// warm fetches every hot target once, checking and keeping its body.
func (b *warmBench) warm() ([][32]byte, error) {
	var digests [][32]byte
	for _, t := range b.hot {
		var buf bytes.Buffer
		r, _, err := get(b.client, b.srv.base+t.path, "", &buf)
		if err == nil {
			err = t.check(r)
		}
		if err != nil {
			return nil, err
		}
		d, err := bodyDigest(buf.Bytes(), t.experiment)
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, buf.Bytes())
		digests = append(digests, d)
	}
	return digests, nil
}

// request is the schedule's request i: hot target k, conditional on
// etag when that is non-empty. Rounds over the hot set alternate between
// plain and conditional GETs, so every target is revalidated half the
// time.
func (b *warmBench) request(i int) (k int, etag string) {
	k = i % len(b.hot)
	if (i/len(b.hot))%2 == 1 {
		t := b.hot[k]
		etag = serve.ETagFor(t.cfg, t.endpoint, t.format)
	}
	return k, etag
}

// op sends request i.
func (b *warmBench) op(c, i int) (time.Duration, error) {
	k, etag := b.request(i)
	t := b.hot[k]
	buf := &b.bufs[c]
	r, d, err := get(b.client, b.srv.base+t.path, etag, buf)
	if err != nil {
		return d, err
	}
	if etag != "" {
		if r.status != http.StatusNotModified || r.etag != etag {
			return d, fmt.Errorf("%s: conditional GET got %d (ETag %s), want 304 (ETag %s)", t.path, r.status, r.etag, etag)
		}
		return d, nil
	}
	if err := t.check(r); err != nil {
		return d, err
	}
	if !bytes.Equal(buf.Bytes(), b.bodies[k]) {
		return d, fmt.Errorf("%s: body differs from the one this ETag served before", t.path)
	}
	return d, nil
}

func (b *warmBench) close() error {
	b.client.CloseIdleConnections()
	return b.srv.close()
}

// coldBench is serve-coldscan: a closed-loop client scanning more seeds
// than the study LRU holds, so every request builds a study. One client,
// not two: two cold builds at once on a two-processor host made a run's
// throughput swing by ±15% from one process to the next, on the same
// seed, where one client's runs agree within 5%.
type coldBench struct {
	srv    *server
	client *http.Client
	seeds  []uint64
	bufs   []bytes.Buffer

	mu   sync.Mutex
	seen map[string][32]byte // ETag → body digest
}

// prepareServeCold's set-up starts a server and sends one cold request
// per scanned endpoint for a fixed seed outside the scanned ones, paying
// lazy initialization before timing. Each set-up starts after the
// previous server has shut down, so every one starts from the same
// collected heap.
func prepareServeCold(p params) (bench, []time.Duration, error) {
	const clients = 1
	seeds := make([]uint64, p.sz.coldWindow)
	for i := range seeds {
		seeds[i] = derive(p.seed, "coldscan", i)
	}
	var (
		b      *coldBench
		setups []time.Duration
	)
	for i := 0; i < p.setupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		srv, err := startServer(0)
		if err != nil {
			return nil, nil, err
		}
		b = &coldBench{srv: srv, client: newClient(clients), seeds: seeds,
			bufs: make([]bytes.Buffer, clients), seen: make(map[string][32]byte)}
		for _, e := range coldEndpoints {
			t := newTarget(derive(0, "coldscan-setup", 0), e[0], e[1])
			var r response
			if r, _, err = get(b.client, srv.base+t.path, "", &b.bufs[0]); err == nil {
				err = t.check(r)
			}
			if err != nil {
				break
			}
		}
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, nil, errors.Join(err, b.close())
		}
	}
	return b, setups, nil
}

// op sends request i: seed i mod window, endpoint i mod 3. The window
// is prime and far larger than the LRU's four studies, so each study
// was evicted long before its seed comes round again, and every
// (seed, endpoint) pair recurs with period 3×window — which is what
// lets the ETag → body check compare rebuilds.
func (b *coldBench) op(c, i int) (time.Duration, error) {
	e := coldEndpoints[i%len(coldEndpoints)]
	t := newTarget(b.seeds[i%len(b.seeds)], e[0], e[1])
	buf := &b.bufs[c]
	r, d, err := get(b.client, b.srv.base+t.path, "", buf)
	if err != nil {
		return d, err
	}
	if err := t.check(r); err != nil {
		return d, err
	}
	sum, err := bodyDigest(buf.Bytes(), t.experiment)
	if err != nil {
		return d, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.seen[r.etag]; ok && prev != sum {
		return d, fmt.Errorf("%s: ETag %s now carries a different body", t.path, r.etag)
	}
	b.seen[r.etag] = sum
	return d, nil
}

func (b *coldBench) close() error {
	b.client.CloseIdleConnections()
	return b.srv.close()
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compisa/internal/cpu"
	"compisa/internal/eval"
	"compisa/internal/explore"
	"compisa/internal/serve"
)

const (
	// warmRequests per pass: at least 1000, so that ten samples lie beyond
	// the reported p99.
	warmRequests = 3000
	// warmBatch is the number of design points per warm request.
	warmBatch = 16
)

// warmPool returns n design points shaped as compose-load's buildPool
// shapes its request pool: point i takes ISA key i mod len(keys); the
// first len(keys) points use the reference core, and each later round of
// keys scales the reference ROB and IQ by one more step. As in buildPool,
// the second round's scaling (ROB 128, IQ 64) equals the reference core.
func warmPool(keys []string, n int) []serve.PointRequest {
	pool := make([]serve.PointRequest, n)
	for i := range pool {
		pool[i] = serve.PointRequest{ISA: keys[i%len(keys)]}
		if variant := i / len(keys); variant > 0 {
			cfg := eval.ReferenceConfig()
			cfg.ROB = 64 * (1 + variant)
			cfg.IQ = 32 * (1 + variant)
			pool[i].Config = &cfg
		}
	}
	return pool
}

// warmStream generates the seeded warm request stream: n batches of batch
// points, each drawn uniformly with replacement from a warmPool as large
// as the stream, as compose-load draws its requests. A point drawn for
// the first time is new scoring work; a later draw of it reads the
// candidate cache. With the pool the size of the stream, about 1/e of the
// points are such repeats.
func warmStream(seed int64, keys []string, n, batch int) [][]serve.PointRequest {
	rng := rand.New(rand.NewSource(seed))
	pool := warmPool(keys, n*batch)
	out := make([][]serve.PointRequest, n)
	for i := range out {
		out[i] = make([]serve.PointRequest, batch)
		for j := range out[i] {
			out[i][j] = pool[rng.Intn(len(pool))]
		}
	}
	return out
}

// pointDigest identifies a point's scored outcome bit for bit.
func pointDigest(p serve.PointResult) string {
	return digest([]string{p.CacheKey, bits(p.MeanSpeedup), bits(p.AreaMM2), bits(p.PeakW), fmt.Sprint(p.DegradedRegions)})
}

// serveResults collects one pass's latencies and scored outcomes.
type serveResults struct {
	mu         sync.Mutex
	coldMS     []float64
	warmMS     []float64
	byKey      map[string]string // cache key -> point digest
	requests   int64
	warmWall   time.Duration
	warmPoints int
	server     *serve.Server
}

// runServeEval measures the serving layer in process over loopback: a cold
// phase of first-touch single-point requests, one ISA at a time, then a
// closed loop of warm batch requests from GOMAXPROCS clients.
func runServeEval(r *run) {
	ctx := context.Background()
	ref := eval.X8664Choice().Key()
	var coldKeys []string
	for _, k := range eval.ChoiceKeys() {
		if k != ref {
			coldKeys = append(coldKeys, k)
		}
	}
	coldOrder := seededOrder(r.seed, len(coldKeys))
	stream := warmStream(r.seed, eval.ChoiceKeys(), warmRequests, warmBatch)
	if r.update {
		r.refs.ServeEval = map[string]string{}
	}
	var setups []float64
	var coldMS, warmMS []float64
	var db *explore.DB
	servePass := func(tr *tracer) (pass, *serveResults) {
		setups = append(setups, timeSetups(7, func() {
			db = explore.NewDB()
			if _, err := db.ReferenceMetrics(ctx); err != nil {
				r.fail(1, "serve-eval set-up: %v", err)
			}
		}))
		res := &serveResults{byKey: map[string]string{}}
		p := timePass(func() int {
			r.servePhases(ctx, db, tr, coldKeys, coldOrder, stream, res)
			return res.warmPoints
		})
		r.mu.Lock()
		r.attempted += res.requests
		r.mu.Unlock()
		p.pointsWall = res.warmWall // throughput covers the warm phase only
		coldMS = append(coldMS, res.coldMS...)
		warmMS = append(warmMS, res.warmMS...)
		return p, res
	}
	ps := r.repeatPasses(2, func() pass { p, _ := servePass(nil); return p })
	if !r.trace {
		r.reportPasses(median(setups), ps)
		r.setE2E("cold_ms.p50", median(coldMS), "ms")
		r.setE2E("warm_ms.p50", median(warmMS), "ms")
		p99, err := percentile(warmMS, 0.99)
		if err != nil {
			r.fail(1, "serve-eval warm latency: %v", err)
		}
		r.setE2E("warm_ms.p99", p99, "ms")
		return
	}
	traced, res := servePass(r.tr)
	r.evalLayers(db, traced.wall, traced.cpu)
	st := res.server.Stats()
	r.setLayer("serve.cache_hits", float64(st.CacheHits.Load()), "count")
	r.setLayer("serve.coalesced", float64(st.Coalesced.Load()), "count")
	r.setLayer("serve.rejected", float64(st.Rejected.Load()), "count")
	r.reportTrace("serve-eval", traced.wall, ps[0].wall)
}

// servePhases serves one fresh DB on a loopback listener and drives the
// cold phase, then the warm phase, recording into res.
func (r *run) servePhases(ctx context.Context, db *explore.DB, tr *tracer, coldKeys []string, coldOrder []int,
	stream [][]serve.PointRequest, res *serveResults) {
	var eng serve.Engine = db
	if tr != nil {
		eng = tracedEngine{db, tr}
	}
	srv := serve.New(eng, serve.Config{})
	res.server = srv
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = traceRequests(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail(1, "serve-eval listen: %v", err)
		return
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	clients := runtime.GOMAXPROCS(0)
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		Timeout:   time.Minute,
	}
	url := "http://" + ln.Addr().String() + "/evaluate"
	defer func() {
		client.CloseIdleConnections()
		if err := srv.Drain(ctx); err != nil {
			r.fail(1, "serve-eval drain: %v", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			r.fail(1, "serve-eval shutdown: %v", err)
		}
		<-served
	}()

	for _, i := range coldOrder {
		key := coldKeys[i]
		resp, lat, err := post(client, url, serve.EvaluateRequest{ISA: key})
		res.requests++
		if !r.checkResponse(resp, err, "cold "+key) {
			continue
		}
		res.coldMS = append(res.coldMS, lat)
		if resp.Results[0].Cached {
			r.fail(1, "serve-eval cold %s was served from cache", key)
		}
		d := pointDigest(resp.Results[0])
		if r.update {
			r.refs.ServeEval[key] = d
		} else if d != r.refs.ServeEval[key] {
			r.fail(1, "serve-eval cold %s result %s, reference %s", key, d, r.refs.ServeEval[key])
		}
	}

	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(stream); i = int(next.Add(1) - 1) {
				resp, lat, err := post(client, url, serve.EvaluateRequest{Points: stream[i]})
				ok := r.checkResponse(resp, err, fmt.Sprintf("warm request %d", i))
				res.mu.Lock()
				res.requests++
				if ok {
					res.warmMS = append(res.warmMS, lat)
					res.warmPoints += len(resp.Results)
					for _, p := range resp.Results {
						d := pointDigest(p)
						if prev, seen := res.byKey[p.CacheKey]; seen && prev != d {
							r.fail(1, "serve-eval warm %s scored differently on repeat", p.CacheKey)
						}
						res.byKey[p.CacheKey] = d
					}
				}
				res.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.warmWall = time.Since(t0)
}

// post sends one /evaluate request and returns the decoded response and
// the round-trip latency in milliseconds (request sent to body read).
func post(client *http.Client, url string, req serve.EvaluateRequest) (*evalResponse, float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, 0, err
	}
	out := &evalResponse{status: resp.StatusCode}
	if err := json.Unmarshal(data, &out.EvaluateResponse); err != nil {
		return nil, 0, fmt.Errorf("status %d, undecodable body: %w", resp.StatusCode, err)
	}
	return out, lat, nil
}

type evalResponse struct {
	serve.EvaluateResponse
	status int
}

// checkResponse counts a request as failed unless it is a 200 whose every
// point scored without error or degraded region.
func (r *run) checkResponse(resp *evalResponse, err error, what string) bool {
	switch {
	case err != nil:
		r.fail(1, "serve-eval %s: %v", what, err)
	case resp.status != http.StatusOK:
		r.fail(1, "serve-eval %s: HTTP %d", what, resp.status)
	case resp.Errors != 0 || len(resp.Results) == 0:
		r.fail(1, "serve-eval %s: %d point errors in %d results", what, resp.Errors, len(resp.Results))
	default:
		for _, p := range resp.Results {
			if p.Error != "" || p.DegradedRegions != 0 {
				r.fail(1, "serve-eval %s: point %s: %q, %d degraded regions", what, p.ISA, p.Error, p.DegradedRegions)
				return false
			}
		}
		return true
	}
	return false
}

// spanCtx carries the enclosing request span to the engine decorator.
type spanCtx struct {
	id  int
	req int64
}

type spanKey struct{}

// traceRequests wraps the handler in a span per HTTP request.
func traceRequests(tr *tracer, next http.Handler) http.Handler {
	var seq atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := seq.Add(1)
		id := tr.begin("serve.request", 0, n, nil)
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, spanCtx{id, n})))
		tr.end(id)
	})
}

// tracedEngine decorates the serving engine with a span per evaluation. It
// evaluates through EvaluateBatch, exactly as DB.Evaluate does.
type tracedEngine struct {
	db *explore.DB
	tr *tracer
}

func (e tracedEngine) ReferenceMetrics(ctx context.Context) ([]eval.Metric, error) {
	return e.db.ReferenceMetrics(ctx)
}

func (e tracedEngine) Evaluate(ctx context.Context, dp eval.DesignPoint, ref []eval.Metric) (*eval.Candidate, error) {
	parent, _ := ctx.Value(spanKey{}).(spanCtx)
	id := e.tr.begin("eval.evaluate_batch", parent.id, parent.req, map[string]any{"isa": dp.ISA.Key()})
	cs, err := e.db.EvaluateBatch(ctx, dp.ISA, []cpu.CoreConfig{dp.Cfg}, ref)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/reclaim"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	batchPreload = 256   // set-up requests written per batch
	warmupReqs   = 10000 // untimed requests per connection after preload
)

// client is one closed-loop connection: it writes a batch of requests,
// flushes, and reads one reply per request before sending the next batch.
type client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	gen  *generator

	batch  []serve.Request
	stamps []time.Time
	buf    []byte

	lat     latHist
	sent    uint64 // requests written, set-up included
	invalid uint64 // replies that were ERR or of the wrong shape, set-up included
	bad     string // the first such reply, for the report
	done    uint64 // replies read in the timed phase
	failed  uint64 // timed-phase requests without a valid reply
	err     error  // the connection failure that ended the client, if any
}

func dial(addr string, gen *generator) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		br:   bufio.NewReaderSize(conn, 64<<10),
		gen:  gen,
	}, nil
}

// exchange sends reqs as one batch and reads their replies, checking each.
// With timed set it records every request's latency, from its write to
// its reply's read, and counts it done or failed. A broken connection
// ends the exchange with an error; the requests it left unanswered count
// as failed.
func (c *client) exchange(reqs []serve.Request, timed bool) error {
	if cap(c.stamps) < len(reqs) {
		c.stamps = make([]time.Time, len(reqs))
	}
	for i := range reqs {
		c.stamps[i] = time.Now()
		c.buf = serve.AppendRequest(c.buf[:0], &reqs[i])
		if _, err := c.bw.Write(c.buf); err != nil {
			return c.broken(len(reqs), timed, fmt.Errorf("write: %w", err))
		}
	}
	if err := c.bw.Flush(); err != nil {
		return c.broken(len(reqs), timed, fmt.Errorf("flush: %w", err))
	}
	c.sent += uint64(len(reqs))
	for i := range reqs {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return c.broken(len(reqs)-i, timed, fmt.Errorf("read: %w", err))
		}
		now := time.Now()
		resp, perr := serve.ParseResponse(line)
		ok := perr == nil && replyValid(reqs[i].Op, resp)
		if !ok {
			c.invalid++
			if c.bad == "" {
				c.bad = fmt.Sprintf("%s -> %q", serve.CmdName(reqs[i].Op), line)
			}
		}
		if timed {
			c.lat.observe(uint64(now.Sub(c.stamps[i])))
			c.done++
			if !ok {
				c.failed++
			}
		}
	}
	return nil
}

func (c *client) broken(unanswered int, timed bool, err error) error {
	c.err = err
	if timed {
		c.failed += uint64(unanswered)
	}
	return err
}

// pump runs the workload's closed loop in batches of the connection's
// pipeline depth until n requests are sent. The connection's deadline
// bounds it; past the deadline the client fails.
func (c *client) pump(pipeline, n int, timed bool) {
	if cap(c.batch) < pipeline {
		c.batch = make([]serve.Request, pipeline)
	}
	batch := c.batch[:pipeline]
	for sent := 0; sent < n; sent += pipeline {
		for i := range batch {
			c.gen.next(&batch[i])
		}
		if c.exchange(batch, timed) != nil {
			return
		}
	}
}

// healthy reports the first problem a client saw, or nil.
func (c *client) healthy() error {
	if c.err != nil {
		return c.err
	}
	if c.invalid > 0 {
		return fmt.Errorf("%d invalid replies, first %s", c.invalid, c.bad)
	}
	return nil
}

// host is one hosted server with its client connections, built and
// brought to steady state by setUp.
type host struct {
	spec    *servedSpec
	srv     *serve.Server
	clients []*client
	setupS  float64
	pad     [][]*byte // see heapPad; held for the server's lifetime
}

// heapPad allocates a seeded random number of small pointer-holding
// objects in each small size class. Allocated just before a server, they
// shift where the engine's per-worker objects land relative to each other
// and to cache lines, so successive servers in one process sample
// different placements instead of repeating one (a server's speed depends
// on its placement; see README.md, "Findings").
func heapPad(rng *rand.Rand) [][]*byte {
	var pad [][]*byte
	for words := 2; words <= 128; words += 2 {
		for n := rng.Intn(4); n > 0; n-- {
			pad = append(pad, make([]*byte, words))
		}
	}
	return pad
}

// serverConfig is memtag-serve's default configuration (workers =
// GOMAXPROCS, 1 GiB arena, tagged TM, 1024 relations) plus the workload's
// reclamation and flight-recorder settings.
func serverConfig(spec *servedSpec, seed int64, scratch string) serve.Config {
	cfg := serve.Config{
		Addr: "127.0.0.1:0",
		Engine: serve.EngineConfig{
			Workers:   runtime.GOMAXPROCS(0),
			MemBytes:  1 << 30,
			Tagged:    true,
			Relations: relations,
			Seed:      seed,
		},
	}
	if spec.reclaim {
		cfg.Engine.Reclaim = true
		cfg.Engine.ReclaimPolicy = reclaim.PolicyImmediate
	}
	if spec.flight {
		// Spans on with memtag-serve's flag defaults: 1ms tail latency, 4
		// attempts, 256-span rings, no SLO auto-dump.
		cfg.Flight = serve.FlightConfig{Spans: true, DumpDir: scratch + "/flight-dump"}
	}
	return cfg
}

// setUp builds and starts a server, dials the clients, preloads the
// planes and warms up. Its duration is the run's set-up time.
func setUp(spec *servedSpec, seed int64, scratch string, pad [][]*byte) (*host, error) {
	t0 := time.Now()
	srv, err := serve.New(serverConfig(spec, seed, scratch))
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("serve.Start: %w", err)
	}
	h := &host{spec: spec, srv: srv, pad: pad}
	// A server that stops answering must fail the set-up, not hang it.
	setupDeadline := t0.Add(setupLimit)
	for i := 0; i < conns; i++ {
		c, err := dial(srv.Addr().String(), newGenerator(spec, seed, i))
		if err != nil {
			h.close()
			return nil, err
		}
		if err := c.conn.SetDeadline(setupDeadline); err != nil {
			h.close()
			return nil, fmt.Errorf("set deadline: %w", err)
		}
		h.clients = append(h.clients, c)
	}
	// One connection preloads: with both, the preload's time would depend
	// on how much the two workers contend (see README.md, "Findings").
	reqs := preload(spec, seed)
	for c := h.clients[0]; len(reqs) > 0 && c.err == nil; {
		n := min(batchPreload, len(reqs))
		c.exchange(reqs[:n], false)
		reqs = reqs[n:]
	}
	if err := h.healthy(); err != nil {
		h.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	h.each(func(c *client) { c.pump(spec.pipeline, warmupReqs, false) })
	if err := h.healthy(); err != nil {
		h.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	h.setupS = time.Since(t0).Seconds()
	return h, nil
}

// each runs f on every client concurrently and waits for all of them.
func (h *host) each(f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range h.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// healthy reports the first client problem, or nil.
func (h *host) healthy() error {
	for _, c := range h.clients {
		if err := c.healthy(); err != nil {
			return err
		}
	}
	return nil
}

// close drops the connections and shuts the server down.
func (h *host) close() error {
	for _, c := range h.clients {
		c.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return h.srv.Shutdown(ctx)
}

// servers is how many servers a timed run builds, one after another. Each
// serves an equal share of the timed work, and the run reports the
// interquartile mean over them of every figure. Many are needed because a
// server's speed depends on where its engine lands in the heap (see
// README.md, "Findings"): the figure averages that many placements. The
// interquartile mean rather than the median, because the placements fall
// into a few speed groups and a median jumps between groups as their
// counts vary from run to run; it still ignores a server the host
// stalled.
const servers = 40

// timeLimit bounds a timed phase at this multiple of its nominal length,
// and setupLimit one server's set-up; past either the server counts as
// hung and the run fails.
const (
	timeLimit  = 10
	setupLimit = 20 * time.Second
)

// liveRun is what the timed phases of one served run measured: per
// server, and summed over its servers.
type liveRun struct {
	phases []phase // per server
	lat    latHist
	done   uint64
	failed uint64

	stats    serve.EngineStats            // engine counters over the timed phases
	service  [telemetry.NumBuckets]uint64 // server-side latency buckets of the timed phases
	kvPool   reclaim.Stats                // the last server's
	setPool  reclaim.Stats                // the last server's
	spans    [2]uint64                    // the last server's flight recorder totals: recorded, kept
	problems []string                     // failed correctness checks
	host     hostMeter
}

// phase is one server's set-up and timed phase, with the host slowdown
// measured just before the set-up (see hostspeed.go).
type phase struct {
	setupS, rps, p50NS, p99NS, cpuUSPerReq, heapBytes float64
	slow                                              float64
}

// atReferenceSpeed scales the phase's host-time figures by its host
// slowdown.
func (p phase) atReferenceSpeed() phase {
	p.setupS /= p.slow
	p.rps *= p.slow
	p.p50NS /= p.slow
	p.p99NS /= p.slow
	p.cpuUSPerReq /= p.slow
	return p
}

// iqm returns the interquartile mean over the run's servers of one phase
// figure.
func (r *liveRun) iqm(f func(p phase) float64) float64 {
	xs := make([]float64, len(r.phases))
	for i, p := range r.phases {
		xs[i] = f(p)
	}
	return interquartileMean(xs)
}

// runServed builds n servers one after another; each is set up, serves
// its share of the timed work closed-loop on every connection at once,
// and is shut down and checked. The timed work is fixed, d at the
// workload's nominal rate, so every version of the program ends it in the
// same state; a phase that has not finished after timeLimit times its
// nominal length fails the run. With profile set (the traced run, n = 1)
// the CPU profile of the timed phase is written there.
func runServed(spec *servedSpec, seed int64, d time.Duration, scratch string, n int,
	profile string) (*liveRun, error) {
	r := &liveRun{}
	share := d / time.Duration(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		slow, err := r.host.slowdown() // before the server exists
		if err != nil {
			return nil, err
		}
		h, err := setUp(spec, seed, scratch, heapPad(rng))
		if err != nil {
			return nil, err
		}
		if err := r.timed(h, share, profile, slow); err != nil {
			h.close()
			return nil, err
		}
		r.check(h)
		if len(r.problems) > 0 {
			break // a failed server fails the run; a hung one keeps a core busy
		}
	}
	if r.done == 0 {
		r.problems = append(r.problems, "no request completed in the timed phase")
	}
	return r, nil
}

// timed runs one server's timed phase.
func (r *liveRun) timed(h *host, d time.Duration, profile string, slow float64) error {
	before := h.srv.Engine().Stats()
	var svc0, svc1 [telemetry.NumBuckets]uint64
	h.srv.Stream().CumulativeLatency(&svc0)
	stopProfile := func() error { return nil }
	if profile != "" {
		var err error
		if stopProfile, err = startProfile(profile); err != nil {
			return err
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	perConn := int(d.Seconds() * float64(h.spec.rate) / conns)
	h.each(func(c *client) {
		if err := c.conn.SetDeadline(t0.Add(timeLimit * d)); err != nil {
			c.err = fmt.Errorf("set deadline: %w", err)
			return
		}
		c.pump(h.spec.pipeline, perConn, true)
	})
	elapsed := time.Since(t0)
	cpu := cpuTime() - cpu0
	if err := stopProfile(); err != nil {
		return err
	}
	after := h.srv.Engine().Stats()
	h.srv.Stream().CumulativeLatency(&svc1)
	for b := range r.service {
		r.service[b] += svc1[b] - svc0[b]
	}
	addTMStats(&r.stats.KV, before.KV, after.KV)
	addTMStats(&r.stats.Res, before.Res, after.Res)
	r.stats.TagOverflows += after.TagOverflows - before.TagOverflows
	r.stats.TagEvictions += after.TagEvictions - before.TagEvictions
	var lat latHist
	var done uint64
	for _, c := range h.clients {
		lat.merge(&c.lat)
		done += c.done
	}
	r.phases = append(r.phases, phase{
		setupS:      h.setupS,
		slow:        slow,
		rps:         float64(done) / elapsed.Seconds(),
		p50NS:       lat.quantile(0.50),
		p99NS:       lat.quantile(0.99),
		cpuUSPerReq: cpu.Seconds() * 1e6 / float64(max(done, 1)),
		heapBytes:   float64(heapInUse()),
	})
	return nil
}

func addTMStats(acc *serve.TMStats, before, after serve.TMStats) {
	acc.Commits += after.Commits - before.Commits
	acc.Aborts += after.Aborts - before.Aborts
	acc.TagAborts += after.TagAborts - before.TagAborts
}

// check shuts a server down and runs the correctness checks on it.
func (r *liveRun) check(h *host) {
	var sent uint64
	for _, c := range h.clients {
		r.lat.merge(&c.lat)
		r.done += c.done
		r.failed += c.failed
		sent += c.sent
		if err := c.healthy(); err != nil {
			r.problems = append(r.problems, "client: "+err.Error())
		}
	}
	if err := h.close(); err != nil {
		r.problems = append(r.problems, "shutdown: "+err.Error())
	}
	eng := h.srv.Engine()
	sum := h.srv.Summarize()
	if sum.Requests != sent {
		r.problems = append(r.problems, fmt.Sprintf("server decoded %d requests, clients sent %d", sum.Requests, sent))
	}
	if sum.Errors != 0 {
		r.problems = append(r.problems, fmt.Sprintf("server answered %d requests with ERR", sum.Errors))
	}
	if ok, detail := eng.CheckTables(); !ok {
		r.problems = append(r.problems, "CheckTables: "+detail)
	}
	r.kvPool, r.setPool = eng.PoolStats()
	for _, p := range []struct {
		name string
		st   reclaim.Stats
	}{{"kv", r.kvPool}, {"set", r.setPool}} {
		if p.st.Retired != p.st.Freed+uint64(p.st.PendingObjs) {
			r.problems = append(r.problems, fmt.Sprintf("%s pool: retired %d != freed %d + pending %d",
				p.name, p.st.Retired, p.st.Freed, p.st.PendingObjs))
		}
	}
	if fr := h.srv.FlightRecorder(); fr != nil {
		r.spans[0], r.spans[1] = fr.Totals()
	}
	if n := h.srv.Dumps(); n != 0 {
		r.problems = append(r.problems, fmt.Sprintf("flight recorder wrote %d post-mortem dumps", n))
	}
}

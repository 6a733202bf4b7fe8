package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/reclaim"
	"repro/internal/serve"
	"repro/internal/skiplist"
	"repro/internal/stm"
	"repro/internal/telemetry"
	"repro/internal/txmap"
	"repro/internal/vacation"
	"repro/internal/vtags"
)

// replayReqs is the length of each lane's replayed stream: the first
// replayReqs requests its connection sends in the live run.
const replayReqs = 100000

// replayEngine rebuilds the serve engine's planes as serve.newEngine wires
// them (tagged TMs, txmap KV, VAS skiplist set, vacation tables, optional
// immediate reclamation) on a memory the replay picks: bare vtags, or the
// counting wrapper around it. Internal/serve keeps its engine private, so
// the replay drives the same layer calls Worker.Exec makes from here.
type replayEngine struct {
	mem   core.Memory
	kvTM  *stm.TM
	resTM *stm.TM
	kv    *txmap.Map
	set   *skiplist.List
	res   *vacation.Manager
	pools []*reclaim.Pool
	lanes []*lane
}

func newReplayEngine(spec *servedSpec, seed int64, lanes int, traced bool) *replayEngine {
	raw := vtags.New(1<<30, lanes)
	e := &replayEngine{mem: raw}
	if traced {
		e.mem = wrapVtags(raw)
	}
	e.kvTM, e.resTM = stm.NewTagged(e.mem), stm.NewTagged(e.mem)
	e.kvTM.Prepare(lanes)
	e.resTM.Prepare(lanes)
	var dom *reclaim.Domain
	if spec.reclaim {
		dom = reclaim.NewDomainFor(e.mem)
		raw.SetReclaim(dom)
		e.kvTM.SetReclaim(dom)
		e.resTM.SetReclaim(dom)
	}
	e.kv = txmap.New(e.mem)
	e.set = skiplist.NewVAS(e.mem)
	if spec.reclaim {
		kvPool := reclaim.NewPool(dom, txmap.NodeWords, reclaim.PolicyImmediate)
		setPool := reclaim.NewPool(dom, skiplist.NodeWords, reclaim.PolicyImmediate)
		e.kv.SetReclaim(kvPool)
		e.set.SetReclaim(setPool)
		e.pools = []*reclaim.Pool{kvPool, setPool}
	}
	e.res = vacation.NewManager(e.mem, e.resTM)
	vacation.Populate(e.res, e.mem.Thread(0), vacation.Params{Relations: relations}, seed)
	for i := 0; i < lanes; i++ {
		e.lanes = append(e.lanes, newLane(e, i))
	}
	return e
}

// lane mirrors one serve.Worker: a backend thread, argument slots, and
// transaction bodies bound to those slots once.
type lane struct {
	e  *replayEngine
	id int
	th core.Thread

	key, val, out     uint64
	ok                bool
	cust, kind, resID uint64
	num, price        uint64
	getFn, putFn      func(tx *stm.Tx)
	delFn, resvFn     func(tx *stm.Tx)
	billFn, addCustFn func(tx *stm.Tx)
	addResFn          func(tx *stm.Tx)
	ins               instruments // armed (sr set) in the traced pass
}

type opClocker interface{ OpClock() (clock, fails uint64) }

// instruments are the traced replay's per-lane tallies; the ns sums
// include one empty timed section per call, which the report subtracts.
type instruments struct {
	opNS, opN [256]uint64 // time in the layer call, by wire op
	decodeNS  uint64
	tickNS    uint64
	spanNS    uint64
	obs       txCounter
	sr        *telemetry.SpanRecorder
	stream    *telemetry.Stream
	hist      telemetry.Histogram
	oc        opClocker
	epoch     time.Time
}

func (a *instruments) add(b *instruments) {
	for op := range a.opNS {
		a.opNS[op] += b.opNS[op]
		a.opN[op] += b.opN[op]
	}
	a.decodeNS += b.decodeNS
	a.tickNS += b.tickNS
	a.spanNS += b.spanNS
	a.obs.starts += b.obs.starts
	a.obs.commits += b.obs.commits
	a.obs.tagAborts += b.obs.tagAborts
}

func newLane(e *replayEngine, id int) *lane {
	l := &lane{e: e, id: id, th: e.mem.Thread(id)}
	l.getFn = func(tx *stm.Tx) { l.out, l.ok = e.kv.Get(tx, l.key) }
	l.putFn = func(tx *stm.Tx) { l.ok = e.kv.Put(tx, l.key, l.val, l.th) }
	l.delFn = func(tx *stm.Tx) { l.ok = e.kv.Delete(tx, l.key) }
	l.resvFn = func(tx *stm.Tx) {
		e.res.AddCustomer(tx, l.th, l.cust)
		l.price, l.ok = e.res.ReservePriced(tx, l.th, l.cust, int(l.kind), l.resID)
	}
	l.billFn = func(tx *stm.Tx) { l.out, l.ok = e.res.QueryCustomerBill(tx, l.cust) }
	l.addCustFn = func(tx *stm.Tx) { l.ok = e.res.AddCustomer(tx, l.th, l.cust) }
	l.addResFn = func(tx *stm.Tx) {
		e.res.AddResource(tx, l.th, int(l.kind), l.resID, l.num, l.price)
	}
	return l
}

// arm attaches the traced run's observer, span recorder and stream.
func (l *lane) arm(fr *telemetry.FlightRecorder, st *telemetry.Stream, epoch time.Time) {
	l.ins.sr = telemetry.NewSpanRecorder(fr, l.id, epoch, productionTail)
	l.ins.stream = st
	l.ins.oc = l.th.(opClocker)
	l.ins.epoch = epoch
	l.ins.obs.next = l.ins.sr
	l.e.kvTM.SetTxObserver(l.th.ID(), &l.ins.obs)
	l.e.resTM.SetTxObserver(l.th.ID(), &l.ins.obs)
	l.th.(*countThread).c = tagCounts{} // count the replayed stream only
}

// disarm removes the observer, so the checks after the stream are not
// counted.
func (l *lane) disarm() {
	l.e.kvTM.SetTxObserver(l.th.ID(), nil)
	l.e.resTM.SetTxObserver(l.th.ID(), nil)
}

// productionTail is memtag-serve's default tail-sampling policy.
var productionTail = telemetry.TailPolicy{LatencyNS: uint64(time.Millisecond), Attempts: 4}

func boolResp(ok bool) serve.Response {
	if ok {
		return serve.Response{Kind: serve.RespTrue}
	}
	return serve.Response{Kind: serve.RespFalse}
}

func valResp(ok bool, v uint64, miss byte) serve.Response {
	if ok {
		return serve.Response{Kind: serve.RespOK, Val: v, HasVal: true}
	}
	return serve.Response{Kind: miss}
}

// exec runs one request the way serve.Worker.Exec does for the commands
// the benchmark sends, returning the reply it would encode.
func (l *lane) exec(req *serve.Request) serve.Response {
	e := l.e
	switch req.Op {
	case serve.CmdGet:
		l.key = req.A
		e.kvTM.RunCached(l.th, l.getFn)
		return valResp(l.ok, l.out, serve.RespNF)
	case serve.CmdPut:
		l.key, l.val = req.A, req.B
		e.kvTM.RunCached(l.th, l.putFn)
		return boolResp(l.ok)
	case serve.CmdDel:
		l.key = req.A
		e.kvTM.RunCached(l.th, l.delFn)
		return boolResp(l.ok)
	case serve.CmdSAdd:
		return boolResp(e.set.Insert(l.th, req.A))
	case serve.CmdSRem:
		return boolResp(e.set.Delete(l.th, req.A))
	case serve.CmdSHas:
		return boolResp(e.set.Contains(l.th, req.A))
	case serve.CmdResv:
		l.cust, l.kind, l.resID = req.A, req.B, req.C
		e.resTM.RunCached(l.th, l.resvFn)
		return valResp(l.ok, l.price, serve.RespFalse)
	case serve.CmdBill:
		l.cust = req.A
		e.resTM.RunCached(l.th, l.billFn)
		return valResp(l.ok, l.out, serve.RespNF)
	case serve.CmdAddCust:
		l.cust = req.A
		e.resTM.RunCached(l.th, l.addCustFn)
		return boolResp(l.ok)
	case serve.CmdAddRes:
		l.kind, l.resID, l.num, l.price = req.A, req.B, req.C, req.D
		e.resTM.RunCached(l.th, l.addResFn)
		return serve.Response{Kind: serve.RespOK}
	case serve.CmdPing:
		return serve.Response{Kind: serve.RespPong}
	}
	return serve.Response{Kind: serve.RespErr}
}

// run decodes and executes lines in order, appending each reply to out
// when out is non-nil. It returns the number of invalid replies.
func (l *lane) run(lines [][]byte, out *[]serve.Response) (invalid int, firstBad string) {
	for i, line := range lines {
		var resp serve.Response
		var op uint8
		if l.ins.sr != nil {
			resp, op = l.runTraced(line, uint64(i))
		} else {
			req, err := serve.ParseRequest(line)
			if err == nil {
				op, resp = req.Op, l.exec(&req)
			}
		}
		if !replyValid(op, resp) {
			invalid++
			if firstBad == "" {
				firstBad = fmt.Sprintf("%q -> %c", line, resp.Kind)
			}
		}
		if out != nil {
			*out = append(*out, resp)
		}
	}
	return invalid, firstBad
}

// runTraced is one request with every instrument: decode timed, a span
// begun and ended around the layer call, the layer call timed by op, and
// the served path's telemetry tick timed.
func (l *lane) runTraced(line []byte, seq uint64) (serve.Response, uint8) {
	in := &l.ins
	epoch := in.epoch
	t0 := time.Now()
	req, err := serve.ParseRequest(line)
	t1 := time.Now()
	in.decodeNS += uint64(t1.Sub(t0))
	if err != nil {
		return serve.Response{Kind: serve.RespErr}, 0
	}
	tick, f0 := in.oc.OpClock()
	s0 := time.Now()
	in.sr.Begin(seq, req.Op, uint64(t0.Sub(epoch)), uint64(t1.Sub(t0)), 0, tick)
	in.spanNS += uint64(time.Since(s0))

	x0 := time.Now()
	resp := l.exec(&req)
	x1 := time.Now()
	d := uint64(x1.Sub(x0))
	in.opNS[req.Op] += d
	in.opN[req.Op]++

	s1 := time.Now()
	in.sr.End(uint64(s1.Sub(epoch)), resp.Kind == serve.RespErr)
	in.spanNS += uint64(time.Since(s1))

	_, f1 := in.oc.OpClock()
	k0 := time.Now()
	in.stream.Tick(l.id, uint64(k0.Sub(epoch)), d, f1-f0)
	in.hist.Observe(d)
	in.tickNS += uint64(time.Since(k0))
	return resp, req.Op
}

// txCounter is the traced replay's stm.TxObserver: it counts attempts and
// their outcomes and passes every event on to the lane's span recorder.
type txCounter struct {
	starts, commits, tagAborts uint64
	next                       stm.TxObserver
}

func (c *txCounter) TxAttemptStart() {
	c.starts++
	c.next.TxAttemptStart()
}

func (c *txCounter) TxAttemptEnd(committed, fromTags bool) {
	if committed {
		c.commits++
	} else if fromTags {
		c.tagAborts++
	}
	c.next.TxAttemptEnd(committed, fromTags)
}

func (c *txCounter) TxTagOverflow() { c.next.TxTagOverflow() }

// replayStreams encodes the first n requests of each connection's stream
// as wire lines.
func replayStreams(spec *servedSpec, seed int64, lanes, n int) [][][]byte {
	out := make([][][]byte, lanes)
	for c := range out {
		g := newGenerator(spec, seed, c)
		var req serve.Request
		for i := 0; i < n; i++ {
			g.next(&req)
			out[c] = append(out[c], serve.AppendRequest(nil, &req))
		}
	}
	return out
}

// replayResult is one replay pass.
type replayResult struct {
	elapsed  []time.Duration           // per lane
	replies  [][]serve.Response        // per lane, when collected
	fr       *telemetry.FlightRecorder // traced pass only
	ins      instruments               // traced pass only: lane tallies summed
	tags     tagCounts                 // traced pass only: thread tallies summed
	reqs     int
	problems []string
}

// replay builds an engine, preloads it on lane 0 as the live set-up does,
// then runs one stream per lane concurrently and checks the tables. With
// collect set it keeps every reply.
func replay(spec *servedSpec, seed int64, streams [][][]byte, traced, collect bool) *replayResult {
	e := newReplayEngine(spec, seed, len(streams), traced)
	res := &replayResult{
		elapsed: make([]time.Duration, len(streams)),
		replies: make([][]serve.Response, len(streams)),
	}
	for _, req := range preload(spec, seed) {
		req := req
		if resp := e.lanes[0].exec(&req); !replyValid(req.Op, resp) {
			res.problems = append(res.problems, fmt.Sprintf("replay preload: %s -> %c", serve.CmdName(req.Op), resp.Kind))
			return res
		}
	}
	if traced {
		res.fr = telemetry.NewFlightRecorder(len(streams), 256)
		st := telemetry.NewStream(len(streams), uint64(100*time.Millisecond), 120)
		epoch := time.Now()
		for _, l := range e.lanes {
			l.arm(res.fr, st, epoch)
		}
	}
	runtime.GC() // start each pass without the previous one's garbage
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, l := range e.lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			var out *[]serve.Response
			if collect {
				out = &res.replies[i]
			}
			t0 := time.Now()
			bad, first := l.run(streams[i], out)
			res.elapsed[i] = time.Since(t0)
			if bad > 0 {
				mu.Lock()
				res.problems = append(res.problems, fmt.Sprintf("replay lane %d: %d invalid replies, first %s", i, bad, first))
				mu.Unlock()
			}
		}(i, l)
	}
	wg.Wait()
	for _, s := range streams {
		res.reqs += len(s)
	}
	if traced {
		for _, l := range e.lanes {
			l.disarm()
			res.ins.add(&l.ins)
			res.tags.add(&l.th.(*countThread).c)
		}
	}
	if ok, detail := e.res.CheckTables(e.mem.Thread(0)); !ok {
		res.problems = append(res.problems, "replay CheckTables: "+detail)
	}
	for _, p := range e.pools {
		if st := p.Stats(); st.Retired != st.Freed+uint64(st.PendingObjs) {
			res.problems = append(res.problems, fmt.Sprintf("replay pool: retired %d != freed %d + pending %d",
				st.Retired, st.Freed, st.PendingObjs))
		}
	}
	return res
}

// nsPerReq is the pass's cost per request on one lane.
func (r *replayResult) nsPerReq() float64 {
	var sum time.Duration
	for _, d := range r.elapsed {
		sum += d
	}
	return float64(sum.Nanoseconds()) / float64(r.reqs)
}

// emptySectionNS is the measured length of an empty timed section
// (time.Now then time.Since), subtracted from every timed call.
func emptySectionNS() float64 {
	const n = 1 << 20
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum.Nanoseconds()) / n
}

package main

import (
	"math/rand"

	"repro/internal/intset"
	"repro/internal/serve"
	"repro/internal/vacation"
	"repro/internal/workload"
)

// opShare is one entry of a workload's op mix.
type opShare struct {
	op  uint8
	pct int
}

// servedSpec describes one served workload. The reasons each exists are
// in README.md; the numbers here are the ones it fixes.
type servedSpec struct {
	name     string
	mix      []opShare
	dist     workload.KeyDist
	keys     uint64 // keys drawn from [intset.KeyMin, KeyMin+keys)
	pipeline int    // requests in flight per connection (closed loop)
	rate     int    // nominal requests/s: the timed phase sends rate·seconds requests

	reclaim bool // PolicyImmediate reclamation under the KV and set planes
	flight  bool // spans and flight recorder armed at production defaults
}

const (
	conns     = 2    // client connections (one per engine worker at GOMAXPROCS=2)
	relations = 1024 // memtag-serve's default vacation populate
	resIDs    = relations
	// resTopUp is the capacity added to every resource in set-up, so no
	// RESV in a run finds its resource full and the reservation path stays
	// the same from the first timed request to the last. resPrice is the
	// price the top-up sets, which every RESV reply must then carry.
	resTopUp = 1 << 24
	resPrice = 70
)

var servedSpecs = map[string]*servedSpec{
	"kv-txn": {
		name: "kv-txn",
		mix: []opShare{
			{serve.CmdGet, 75}, {serve.CmdPut, 15}, {serve.CmdResv, 5}, {serve.CmdBill, 5},
		},
		dist: workload.DistUniform, keys: 65536, pipeline: 32, rate: 200000,
	},
	"set-rr": {
		name: "set-rr",
		mix: []opShare{
			{serve.CmdSHas, 40}, {serve.CmdSAdd, 20}, {serve.CmdSRem, 20}, {serve.CmdPing, 20},
		},
		dist: workload.DistUniform, keys: 16384, pipeline: 1, rate: 100000,
	},
	"hot-writes": {
		name: "hot-writes",
		mix: []opShare{
			{serve.CmdPut, 45}, {serve.CmdDel, 20}, {serve.CmdGet, 25}, {serve.CmdResv, 10},
		},
		dist: workload.DistZipfian, keys: 4096, pipeline: 32, rate: 280000,
		reclaim: true, flight: true,
	},
	// hot-writes-sets is hot-writes with set-plane writes in its mix. It
	// is not in BENCHMARK.json: it reproduces the skiplist hang under
	// PolicyImmediate (README.md, Findings 1). Once that is fixed, its set
	// ops belong back in hot-writes.
	"hot-writes-sets": {
		name: "hot-writes-sets",
		mix: []opShare{
			{serve.CmdPut, 35}, {serve.CmdDel, 15}, {serve.CmdGet, 20},
			{serve.CmdSAdd, 10}, {serve.CmdSRem, 10}, {serve.CmdResv, 10},
		},
		dist: workload.DistZipfian, keys: 4096, pipeline: 32, rate: 280000,
		reclaim: true, flight: true,
	},
}

// uses reports whether the mix contains op.
func (s *servedSpec) uses(op uint8) bool {
	for _, m := range s.mix {
		if m.op == op {
			return true
		}
	}
	return false
}

// generator is one connection's seeded request stream. The same (spec,
// seed, conn) always yields the same requests, which is what lets the
// traced replay re-run exactly the stream the live run sent.
type generator struct {
	spec *servedSpec
	rng  *rand.Rand
	key  func() uint64
}

func newGenerator(spec *servedSpec, seed int64, conn int) *generator {
	draw := workload.NewKeyDraw(&workload.Config{Dist: spec.dist, KeyRange: spec.keys})
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1))
	return &generator{spec: spec, rng: rng, key: draw(rng)}
}

// next fills req with the stream's next request.
func (g *generator) next(req *serve.Request) {
	p := g.rng.Intn(100)
	mix := g.spec.mix
	j := 0
	for acc := mix[0].pct; p >= acc; acc += mix[j].pct {
		j++
	}
	*req = serve.Request{Op: mix[j].op}
	switch req.Op {
	case serve.CmdGet, serve.CmdDel, serve.CmdSAdd, serve.CmdSRem, serve.CmdSHas, serve.CmdBill:
		req.A = g.key()
	case serve.CmdPut:
		req.A, req.B = g.key(), uint64(g.rng.Int63n(1_000_000))+1
	case serve.CmdResv:
		req.A = g.key()
		req.B = uint64(g.rng.Intn(vacation.NumKinds))
		req.C = uint64(g.rng.Int63n(resIDs)) + 1
	}
}

// preload returns the set-up requests that bring the planes the mix uses
// to their steady state before anything is timed: every KV key present
// (the mix's puts then overwrite), every resource topped up, and half of
// the set keys present (the level equal SADD/SREM shares hold it at).
// Customers are not preloaded: as in STAMP, a customer is created by its
// first reservation.
func preload(spec *servedSpec, seed int64) []serve.Request {
	var reqs []serve.Request
	key := func(i uint64) uint64 { return intset.KeyMin + i }
	if spec.uses(serve.CmdGet) || spec.uses(serve.CmdPut) {
		for i := uint64(0); i < spec.keys; i++ {
			reqs = append(reqs, serve.Request{Op: serve.CmdPut, A: key(i), B: i + 1})
		}
	}
	if spec.uses(serve.CmdResv) {
		for k := uint64(0); k < vacation.NumKinds; k++ {
			for id := uint64(1); id <= resIDs; id++ {
				reqs = append(reqs, serve.Request{Op: serve.CmdAddRes, A: k, B: id, C: resTopUp, D: resPrice})
			}
		}
	}
	if spec.uses(serve.CmdSAdd) {
		rng := rand.New(rand.NewSource(seed ^ 0x5e7))
		for i := uint64(0); i < spec.keys; i++ {
			if rng.Intn(2) == 0 {
				reqs = append(reqs, serve.Request{Op: serve.CmdSAdd, A: key(i)})
			}
		}
	}
	return reqs
}

// replyValid reports whether resp is a well-formed success reply to op.
// An ERR, or a reply of the wrong shape, counts as a failed request.
func replyValid(op uint8, resp serve.Response) bool {
	switch op {
	case serve.CmdGet, serve.CmdBill:
		return resp.Kind == serve.RespNF || (resp.Kind == serve.RespOK && resp.HasVal)
	case serve.CmdPut, serve.CmdDel, serve.CmdSAdd, serve.CmdSRem, serve.CmdSHas, serve.CmdAddCust:
		return resp.Kind == serve.RespTrue || resp.Kind == serve.RespFalse
	case serve.CmdResv:
		// Every resource was topped up at resPrice, so a reservation must
		// succeed and carry that price.
		return resp.Kind == serve.RespOK && resp.HasVal && resp.Val == resPrice
	case serve.CmdAddRes:
		return resp.Kind == serve.RespOK
	case serve.CmdPing:
		return resp.Kind == serve.RespPong
	}
	return false
}

package main

import (
	"bufio"
	"context"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/vtags"
)

// The percentile helper must land within one bucket width (<= 1/128 of
// the value) of the exact nearest-rank order statistic.
func TestQuantileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20000)
		var h latHist
		vals := make([]uint64, n)
		for i := range vals {
			// Log-uniform over 1ns..10s, the range latencies take.
			vals[i] = uint64(math.Exp(rng.Float64() * math.Log(1e10)))
			h.observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			want := float64(vals[rank-1])
			got := h.quantile(q)
			if tol := math.Max(want/subCount, 1); math.Abs(got-want) > tol {
				t.Fatalf("n=%d q=%v: got %v, exact %v (tolerance %v)", n, q, got, want, tol)
			}
		}
	}
	var empty latHist
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
}

// The server-side quantile read from bucket deltas must agree with
// telemetry.Histogram.Quantile on the same values away from the extremes,
// where the histogram clamps to its observed min and max.
func TestPow2QuantileMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h telemetry.Histogram
	var buckets [telemetry.NumBuckets]uint64
	for i := 0; i < 50000; i++ {
		v := uint64(math.Exp(rng.Float64() * math.Log(1e7)))
		h.Observe(v)
		buckets[telemetry.BucketIndex(v)]++
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := pow2Quantile(&buckets, q), h.Quantile(q); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("q=%v: got %v, telemetry.Histogram %v", q, got, want)
		}
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3, -50}, 2},           // one dropped at each end
		{[]float64{8, 1, 1000, 2, 3, 4, 5, 0}, 3.5}, // two dropped at each end
	} {
		if got := interquartileMean(c.xs); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestBucketsAreContiguousAndNarrow(t *testing.T) {
	prevEnd := 0.0
	for b := 0; b < numBuckets; b++ {
		lo, w := bucketRange(b)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %v, previous ends at %v", b, lo, prevEnd)
		}
		if lo >= subCount && w/lo > 1.0/subCount {
			t.Fatalf("bucket %d width %v is more than 1/%d of %v", b, w, subCount, lo)
		}
		if lo < math.MaxUint64/2 && bucketOf(uint64(lo)) != b {
			t.Fatalf("bucketOf(%v) = %d, want %d", lo, bucketOf(uint64(lo)), b)
		}
		prevEnd = lo + w
	}
	if bucketOf(math.MaxUint64) != numBuckets-1 {
		t.Fatal("the largest value must fall in the last bucket")
	}
}

// The counting wrapper must offer every core.Thread method and every
// optional interface the layers type-assert on a thread handle, or a
// layer would silently take another path under the traced replay.
var (
	_ core.Memory                                  = (*countMemory)(nil)
	_ core.Thread                                  = (*countThread)(nil)
	_ interface{ OpClock() (clock, fails uint64) } = (*countThread)(nil) // serve, reclaim, workload
	_ interface{ SetActive(bool) }                 = (*countThread)(nil) // vacation, workload, intset
)

// Every exported method of the vtags handle is forwarded, so a method a
// layer starts asserting later is caught here too.
func TestWrapperForwardsEveryVtagsMethod(t *testing.T) {
	inner := reflect.TypeOf((*vtags.Thread)(nil))
	wrap := reflect.TypeOf((*countThread)(nil))
	for i := 0; i < inner.NumMethod(); i++ {
		m := inner.Method(i)
		w, ok := wrap.MethodByName(m.Name)
		if !ok {
			t.Errorf("countThread lacks %s", m.Name)
			continue
		}
		if w.Type.NumIn() != m.Type.NumIn() || w.Type.NumOut() != m.Type.NumOut() {
			t.Errorf("countThread.%s has signature %v, vtags has %v", m.Name, w.Type, m.Type)
		}
	}
}

// A single-lane replay is deterministic, so the wrapped and bare engines
// must give identical replies to the same stream: the instruments observe
// and must not change what the layers do.
func TestReplayWrappedMatchesBare(t *testing.T) {
	for _, name := range []string{"kv-txn", "set-rr", "hot-writes", "hot-writes-sets"} {
		spec := servedSpecs[name]
		streams := replayStreams(spec, 7, 1, 5000)
		bare := replay(spec, 7, streams, false, true)
		traced := replay(spec, 7, streams, true, true)
		for _, r := range []*replayResult{bare, traced} {
			if len(r.problems) > 0 {
				t.Fatalf("%s: %v", name, r.problems)
			}
		}
		if !reflect.DeepEqual(bare.replies, traced.replies) {
			t.Fatalf("%s: wrapped replay replies differ from bare replay", name)
		}
		if traced.tags.validates == 0 && spec.uses(serve.CmdGet) {
			t.Fatalf("%s: the wrapper counted no Validate calls", name)
		}
	}
}

// The replay re-implements the layer calls serve.Worker.Exec makes and
// the engine wiring serve.New builds, so it must answer like the server:
// one connection to a one-worker server and a one-lane replay of the same
// preload and stream must get identical replies. A change to Exec or to
// the engine that the replay does not follow fails here.
func TestReplayMatchesServer(t *testing.T) {
	for _, name := range []string{"kv-txn", "set-rr", "hot-writes", "hot-writes-sets"} {
		spec := servedSpecs[name]
		streams := replayStreams(spec, 7, 1, 5000)
		want := replay(spec, 7, streams, false, true)
		if len(want.problems) > 0 {
			t.Fatalf("%s: %v", name, want.problems)
		}

		cfg := serverConfig(spec, 7, t.TempDir())
		cfg.Engine.Workers = 1
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		exchange := func(lines [][]byte) []serve.Response {
			for _, line := range lines {
				if _, err := conn.Write(line); err != nil {
					t.Fatalf("%s: write: %v", name, err)
				}
			}
			out := make([]serve.Response, len(lines))
			for i := range out {
				line, err := br.ReadSlice('\n')
				if err != nil {
					t.Fatalf("%s: read: %v", name, err)
				}
				if out[i], err = serve.ParseResponse(line); err != nil {
					t.Fatalf("%s: reply %q: %v", name, line, err)
				}
			}
			return out
		}
		var preloadLines [][]byte
		for _, req := range preload(spec, 7) {
			preloadLines = append(preloadLines, serve.AppendRequest(nil, &req))
		}
		for start := 0; start < len(preloadLines); start += batchPreload {
			exchange(preloadLines[start:min(start+batchPreload, len(preloadLines))])
		}
		var got []serve.Response
		for start := 0; start < len(streams[0]); start += spec.pipeline {
			got = append(got, exchange(streams[0][start:min(start+spec.pipeline, len(streams[0]))])...)
		}
		conn.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.replies[0]) {
			for i := range got {
				if got[i] != want.replies[0][i] {
					t.Fatalf("%s: request %d %q: server replied %+v, replay %+v",
						name, i, streams[0][i], got[i], want.replies[0][i])
				}
			}
			t.Fatalf("%s: server sent %d replies, replay %d", name, len(got), len(want.replies[0]))
		}
	}
}

// The generator's op shares must match the workload's mix.
func TestGeneratorMixProportions(t *testing.T) {
	const n = 200000
	for name, spec := range servedSpecs {
		g := newGenerator(spec, 3, 0)
		counts := map[uint8]int{}
		var req serve.Request
		for i := 0; i < n; i++ {
			g.next(&req)
			counts[req.Op]++
			if req.Op != serve.CmdPing && (req.A < 1 || req.A > spec.keys) {
				t.Fatalf("%s: key %d outside [1, %d]", name, req.A, spec.keys)
			}
		}
		total := 0
		for _, m := range spec.mix {
			total += m.pct
			got := float64(counts[m.op]) / n
			want := float64(m.pct) / 100
			// Five binomial standard deviations.
			if tol := 5 * math.Sqrt(want*(1-want)/n); math.Abs(got-want) > tol {
				t.Errorf("%s: %s share %.4f, want %.2f±%.4f", name, serve.CmdName(m.op), got, want, tol)
			}
		}
		if total != 100 {
			t.Errorf("%s: mix sums to %d%%", name, total)
		}
		if len(counts) != len(spec.mix) {
			t.Errorf("%s: generated %d op kinds, mix has %d", name, len(counts), len(spec.mix))
		}
	}
}

// The same seed gives the same stream; another seed another.
func TestGeneratorIsSeeded(t *testing.T) {
	spec := servedSpecs["hot-writes"]
	a, b := replayStreams(spec, 5, 2, 1000), replayStreams(spec, 5, 2, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, replayStreams(spec, 6, 2, 1000)) {
		t.Fatal("different seeds gave the same stream")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("the two connections got the same stream")
	}
}

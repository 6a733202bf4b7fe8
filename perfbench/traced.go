package main

import (
	"math"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// tracedServed is the traced run of a served workload, kept apart from the
// timed runs. A live run with the CPU profile on gives the server-side
// counters; an in-process replay of the same request stream, once bare and
// once with every instrument, gives the per-layer costs and states what
// the instruments cost.
func tracedServed(spec *servedSpec, seed int64, d time.Duration, scratch, profile string) (*report, error) {
	lr, err := runServed(spec, seed, d, scratch, 1, profile)
	if err != nil {
		return nil, err
	}
	streams := replayStreams(spec, seed, conns, replayReqs)
	bare := replay(spec, seed, streams, false, false)
	tr := replay(spec, seed, streams, true, false)
	empty := emptySectionNS()

	r := newReport(spec.name, perLayer)
	r.attempted, r.failed = lr.done, lr.failed
	r.problems = append(append(lr.problems, bare.problems...), tr.problems...)

	// Live server counters over the timed phase.
	svcP50 := pow2Quantile(&lr.service, 0.50)
	r.set("serve.service_p50_us", svcP50/1e3)
	r.set("serve.service_p99_us", pow2Quantile(&lr.service, 0.99)/1e3)
	r.set("serve.outside_p50_us", lr.lat.quantile(0.50)/1e3-svcP50/1e3)
	st := lr.stats
	attemptsPerCommit := func(tm serve.TMStats) float64 {
		return ratio(float64(tm.Commits+tm.Aborts), float64(tm.Commits))
	}
	r.set("stm.kv.attempts_per_commit", attemptsPerCommit(st.KV))
	r.set("stm.res.attempts_per_commit", attemptsPerCommit(st.Res))
	r.set("vtags.overflows_per_kreq", 1e3*ratio(float64(st.TagOverflows), float64(lr.done)))
	r.set("vtags.evictions_per_kreq", 1e3*ratio(float64(st.TagEvictions), float64(lr.done)))
	r.set("reclaim.kv.high_water_lines", float64(lr.kvPool.HighWaterLines))
	r.set("reclaim.set.high_water_lines", float64(lr.setPool.HighWaterLines))
	r.set("reclaim.pending_objs", float64(lr.kvPool.PendingObjs+lr.setPool.PendingObjs))
	r.set("load.samples", float64(lr.lat.n))

	// The traced replay's tallies, summed over lanes.
	in, tc := &tr.ins, &tr.tags
	// perCall is the mean time of a timed call with the empty section's
	// cost taken out; 0 when nothing was timed.
	perCall := func(ns, calls uint64, sections float64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns)/float64(calls) - sections*empty
	}
	opTime := func(op uint8) float64 { return perCall(in.opNS[op], in.opN[op], 1) }
	r.set("serve.decode_ns", perCall(in.decodeNS, uint64(tr.reqs), 1))
	r.set("stm.get_ns", opTime(serve.CmdGet))
	r.set("stm.put_ns", opTime(serve.CmdPut))
	r.set("stm.del_ns", opTime(serve.CmdDel))
	r.set("stm.resv_ns", opTime(serve.CmdResv))
	r.set("stm.bill_ns", opTime(serve.CmdBill))
	r.set("skiplist.insert_ns", opTime(serve.CmdSAdd))
	r.set("skiplist.contains_ns", opTime(serve.CmdSHas))
	r.set("skiplist.delete_ns", opTime(serve.CmdSRem))
	r.set("telemetry.tick_ns", perCall(in.tickNS, uint64(tr.reqs), 1))
	r.set("telemetry.span_ns", perCall(in.spanNS, uint64(tr.reqs), 2))
	starts, commits := float64(in.obs.starts), float64(in.obs.commits)
	r.set("stm.attempts_per_tx", ratio(starts, commits))
	r.set("stm.tag_abort_frac", ratio(float64(in.obs.tagAborts), starts))

	// Tag operations per committed transaction; the sampled call times are
	// scaled to every call.
	validateNS := perCall(tc.validateNS, tc.validateSamples, 1) * float64(tc.validates)
	addTagNS := perCall(tc.addTagNS, tc.addTagSamples, 1) * float64(tc.addTags)
	r.set("vtags.validate_per_tx", ratio(float64(tc.validates), commits))
	r.set("vtags.addtag_per_tx", ratio(float64(tc.addTags), commits))
	r.set("vtags.load_per_tx", ratio(float64(tc.loads), commits))
	r.set("vtags.validate_ns_per_tx", ratio(validateNS, commits))
	r.set("vtags.addtag_ns_per_tx", ratio(addTagNS, commits))
	var layerNS float64
	for op := range in.opNS {
		layerNS += float64(in.opNS[op]) - float64(in.opN[op])*empty
	}
	r.set("vtags.validate_share", ratio(validateNS, layerNS))

	if fr := lr.spans; fr[0] > 0 {
		r.set("telemetry.spans_kept_frac", ratio(float64(fr[1]), float64(fr[0])))
	} else {
		rec, kept := tr.fr.Totals()
		r.set("telemetry.spans_kept_frac", ratio(float64(kept), float64(rec)))
	}
	bareNS, tracedNS := bare.nsPerReq(), tr.nsPerReq()
	r.set("trace.replay_ns_per_req", bareNS)
	r.set("trace.replay_traced_ns_per_req", tracedNS)
	r.set("trace.overhead_frac", tracedNS/bareNS-1)
	r.extra["trace.empty_section_ns"] = empty
	return r, nil
}

// pow2Quantile is the q-quantile of the server's power-of-two latency
// buckets (bucket b holds [2^(b-1), 2^b)), interpolated linearly inside its
// bucket as telemetry.Histogram.Quantile does. The true value can lie
// anywhere in that 2x band.
func pow2Quantile(buckets *[telemetry.NumBuckets]uint64, q float64) float64 {
	var n uint64
	for _, c := range buckets {
		n += c
	}
	rank := q * float64(n)
	var cum float64
	for b, c := range buckets {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); rank <= next {
			lo, hi := 0.0, 1.0
			if b > 0 {
				lo = math.Ldexp(1, b-1)
				hi = 2 * lo
			}
			return lo + (rank-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	return 0
}

// ratio is num/den, or 0 when den is 0 (the workload does no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

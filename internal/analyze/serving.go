package analyze

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"liger/internal/kvcache"
	"liger/internal/serve"
	"liger/internal/trace"
)

// Serving analysis: the continuous/disaggregated analogue of the
// critical-path report. Its core product is the per-request TTFT/TPOT
// decomposition — every request's latency is tiled exactly by labeled
// segments (queue, prefill, decode, handoff, preempt-wait, recompute,
// notify) whose boundaries are the recorded lifecycle instants, so the
// segments sum to the measured latency to the nanosecond. Around it:
// per-pool load attribution (busy-time imbalance across decode pools)
// and KV-pressure episodes (maximal windows where free blocks sat
// under the eviction watermark, with the preemptions they forced).

// Segment kinds of the per-request decomposition.
const (
	// SrvQueue: waiting for admission (batcher wait queue, or a decode
	// pool's admission queue after a disaggregated handoff).
	SrvQueue = "queue"
	// SrvPrefill: first prefill — submission to completion on one node,
	// or arrival to first-token notice across a disaggregated frontend
	// (routing latency included; the frontend cannot see inside).
	SrvPrefill = "prefill"
	// SrvDecode: live in a decode pool producing tokens.
	SrvDecode = "decode"
	// SrvHandoff: the prefill→decode KV transfer on the wire.
	SrvHandoff = "handoff"
	// SrvPreemptWait: evicted and re-queued, waiting to resume.
	SrvPreemptWait = "preempt_wait"
	// SrvRecompute: the resume prefill re-materializing an evicted cache.
	SrvRecompute = "recompute"
	// SrvNotify: decode-side completion to the frontend's finish notice
	// (one network latency; disaggregated runs only).
	SrvNotify = "notify"
)

// srvKinds fixes the presentation order of segment totals.
var srvKinds = []string{SrvQueue, SrvPrefill, SrvHandoff, SrvDecode, SrvPreemptWait, SrvRecompute, SrvNotify}

// ServingSegment is one labeled slice of a request's latency.
type ServingSegment struct {
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// ServingRequest is one request's exact latency decomposition.
type ServingRequest struct {
	Seq          int   `json:"seq"`
	ArrivalNS    int64 `json:"arrival_ns"`
	FirstTokenNS int64 `json:"first_token_ns"`
	FinishNS     int64 `json:"finish_ns"`
	// TTFTNS = FirstTokenNS - ArrivalNS; TotalNS = FinishNS - ArrivalNS;
	// TPOTNS = (FinishNS - FirstTokenNS) / generated tokens.
	TTFTNS  int64 `json:"ttft_ns"`
	TPOTNS  int64 `json:"tpot_ns"`
	TotalNS int64 `json:"total_ns"`
	// Segments tile [ArrivalNS, FinishNS] exactly, in time order;
	// SegmentNS sums them by kind. The TTFT instant is always a segment
	// boundary, so segments left of it sum exactly to TTFTNS.
	Segments    []ServingSegment `json:"segments"`
	SegmentNS   map[string]int64 `json:"segment_ns"`
	Preemptions int              `json:"preemptions"`
}

// PoolLoad attributes serving work to one decode pool.
type PoolLoad struct {
	Pool       int     `json:"pool"`
	Iterations int     `json:"iterations"`
	Prefills   int     `json:"prefills"`
	BusyNS     int64   `json:"busy_ns"`
	MeanPool   float64 `json:"mean_pool"`
	// Share is this pool's fraction of fleet-wide busy time.
	Share float64 `json:"share"`
}

// PressureEpisode is one maximal window where a pool's paged allocator
// sat under its eviction watermark.
type PressureEpisode struct {
	Pool    int   `json:"pool"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// MinFreeBlocks is the episode's low-water mark; Preemptions counts
	// evictions forced while it was open (closing eviction included).
	MinFreeBlocks int `json:"min_free_blocks"`
	Preemptions   int `json:"preemptions"`
}

// ServingReport is the full serving analysis.
type ServingReport struct {
	Requests []ServingRequest `json:"requests"`
	// SegmentNS totals every request's segments by kind.
	SegmentNS map[string]int64 `json:"segment_ns"`
	Pools     []PoolLoad       `json:"pools"`
	// Imbalance is max pool busy time over mean pool busy time (1.0 is
	// perfectly balanced; 0 with no pools).
	Imbalance float64           `json:"imbalance"`
	Episodes  []PressureEpisode `json:"episodes"`
	// Counters aggregates the remaining streams: preemptions,
	// recomputed_tokens, kv_admits/extends/releases, handoffs,
	// handoff_bytes, and router decision kinds (router_<kind>).
	Counters map[string]int64 `json:"counters"`
}

// AnalyzeServing builds the serving report from a recorder. The
// recorder is normalized first, so the report is a pure function of
// the simulation regardless of shard merge interleaving.
func AnalyzeServing(rec *trace.Recorder) *ServingReport {
	rec.Normalize()
	rep := &ServingReport{
		SegmentNS: map[string]int64{},
		Counters:  map[string]int64{},
	}
	rep.Requests = servingRequests(rec)
	for _, r := range rep.Requests {
		for k, v := range r.SegmentNS {
			rep.SegmentNS[k] += v
		}
	}
	rep.Pools, rep.Imbalance = poolLoads(rec.Iterations())
	rep.Episodes = pressureEpisodes(rec.KVEvents())
	for _, e := range rec.KVEvents() {
		switch e.Kind {
		case kvcache.KVAdmit:
			rep.Counters["kv_admits"]++
		case kvcache.KVExtend:
			rep.Counters["kv_extends"]++
		case kvcache.KVRelease:
			rep.Counters["kv_releases"]++
		case kvcache.KVPreempt:
			rep.Counters["preemptions"]++
			rep.Counters["recomputed_tokens"] += int64(e.Tokens)
		}
	}
	for _, h := range rec.KVHandoffs() {
		rep.Counters["handoffs"]++
		rep.Counters["handoff_bytes"] += h.Bytes
	}
	for _, d := range rec.RouterDecisions() {
		rep.Counters["router_"+d.Kind]++
	}
	return rep
}

// servingRequests decomposes every sequence's lifecycle into labeled
// segments. The walk is driven by the closing event's kind:
//
//	prefill_start closes queue (preempt_wait after an eviction);
//	prefill_end closes prefill (recompute on a resume);
//	a non-first arrive closes handoff (the cache landed on a pool);
//	join closes queue (decode-pool admission wait);
//	preempt and a first finish close decode;
//	a second finish closes notify (the frontend's completion notice).
//
// Boundaries are the recorded instants themselves, so the segments of
// a request tile [arrival, finish] exactly by construction.
func servingRequests(rec *trace.Recorder) []ServingRequest {
	bySeq := map[int][]serve.SeqEvent{}
	ids := []int{}
	for _, e := range rec.SeqEvents() {
		if _, ok := bySeq[e.Seq]; !ok {
			ids = append(ids, e.Seq)
		}
		bySeq[e.Seq] = append(bySeq[e.Seq], e)
	}
	sort.Ints(ids)
	var out []ServingRequest
	for _, id := range ids {
		evs := bySeq[id]
		r := ServingRequest{
			Seq:       id,
			ArrivalNS: int64(evs[0].At),
			SegmentNS: map[string]int64{},
		}
		resumed := false  // inside a preempt→recompute episode
		sawStart := false // a prefill_start was recorded
		finishes := 0
		genTokens := 0
		prevAt := evs[0].At
		for _, e := range evs[1:] {
			kind := ""
			switch e.Kind {
			case serve.SeqArrive:
				kind = SrvHandoff
			case serve.SeqPrefillStart:
				sawStart = true
				if resumed {
					kind = SrvPreemptWait
				} else {
					kind = SrvQueue
				}
			case serve.SeqPrefillEnd:
				if resumed && sawStart {
					kind = SrvRecompute
					resumed = false
				} else {
					kind = SrvPrefill
				}
				if r.FirstTokenNS == 0 && int64(e.At) > r.ArrivalNS {
					r.FirstTokenNS = int64(e.At)
				}
			case serve.SeqJoin:
				kind = SrvQueue
			case serve.SeqPreempt:
				kind = SrvDecode
				resumed = true
				r.Preemptions++
			case serve.SeqFinish:
				finishes++
				if finishes == 1 {
					kind = SrvDecode
				} else {
					kind = SrvNotify
				}
				genTokens = e.Tokens
				r.FinishNS = int64(e.At)
			}
			if kind != "" && e.At > prevAt {
				r.Segments = append(r.Segments, ServingSegment{
					Kind: kind, StartNS: int64(prevAt), EndNS: int64(e.At),
				})
				r.SegmentNS[kind] += int64(e.At - prevAt)
			}
			prevAt = e.At
		}
		if r.FirstTokenNS == 0 {
			r.FirstTokenNS = r.ArrivalNS
		}
		if r.FinishNS == 0 {
			r.FinishNS = int64(prevAt)
		}
		r.TTFTNS = r.FirstTokenNS - r.ArrivalNS
		r.TotalNS = r.FinishNS - r.ArrivalNS
		if genTokens > 0 {
			r.TPOTNS = (r.FinishNS - r.FirstTokenNS) / int64(genTokens)
		}
		out = append(out, r)
	}
	return out
}

// poolLoads aggregates iteration records per pool and derives the
// busy-time imbalance (max/mean).
func poolLoads(iters []serve.IterationRecord) ([]PoolLoad, float64) {
	byPool := map[int]*PoolLoad{}
	poolSum := map[int]int{}
	var ids []int
	for _, it := range iters {
		p := byPool[it.Pool]
		if p == nil {
			p = &PoolLoad{Pool: it.Pool}
			byPool[it.Pool] = p
			ids = append(ids, it.Pool)
		}
		if it.Prefill {
			p.Prefills++
		} else {
			p.Iterations++
			poolSum[it.Pool] += it.Batch
		}
		p.BusyNS += int64(it.End - it.Start)
	}
	sort.Ints(ids)
	var out []PoolLoad
	var total, max int64
	for _, id := range ids {
		p := byPool[id]
		if p.Iterations > 0 {
			p.MeanPool = float64(poolSum[id]) / float64(p.Iterations)
		}
		total += p.BusyNS
		if p.BusyNS > max {
			max = p.BusyNS
		}
	}
	imbalance := 0.0
	if total > 0 {
		imbalance = float64(max) * float64(len(ids)) / float64(total)
	}
	for _, id := range ids {
		p := byPool[id]
		if total > 0 {
			p.Share = float64(p.BusyNS) / float64(total)
		}
		out = append(out, *p)
	}
	return out, imbalance
}

// pressureEpisodes extracts maximal under-watermark windows per pool
// from the KV event stream (events arrive time-sorted per pool).
func pressureEpisodes(events []trace.PoolKVEvent) []PressureEpisode {
	open := map[int]*PressureEpisode{}
	var out []PressureEpisode
	var pools []int
	for _, e := range events {
		ep := open[e.Pool]
		if e.Pressure {
			if ep == nil {
				ep = &PressureEpisode{
					Pool: e.Pool, StartNS: int64(e.At), EndNS: int64(e.At),
					MinFreeBlocks: e.Free,
				}
				open[e.Pool] = ep
				pools = append(pools, e.Pool)
			}
			ep.EndNS = int64(e.At)
			if e.Free < ep.MinFreeBlocks {
				ep.MinFreeBlocks = e.Free
			}
			if e.Kind == kvcache.KVPreempt {
				ep.Preemptions++
			}
			continue
		}
		if ep != nil {
			// The transition back above the watermark closes the episode
			// (a closing eviction counts toward it).
			ep.EndNS = int64(e.At)
			if e.Kind == kvcache.KVPreempt {
				ep.Preemptions++
			}
			out = append(out, *ep)
			delete(open, e.Pool)
		}
	}
	for _, p := range pools {
		if ep := open[p]; ep != nil {
			out = append(out, *ep)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].Pool < out[j].Pool
	})
	return out
}

// WriteJSON writes the report as indented JSON; identical recorder
// contents produce identical bytes at any -parallel/-shards value.
func (r *ServingReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteText renders the human-readable serving report ligersim
// -explain prints in its serving modes: segment totals, the mean TTFT/TPOT
// decomposition, pool balance, and pressure episodes.
func (r *ServingReport) WriteText(w io.Writer) error {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var totalNS, ttftNS int64
	for _, q := range r.Requests {
		totalNS += q.TotalNS
		ttftNS += q.TTFTNS
	}
	fmt.Fprintf(w, "serving decomposition over %d requests:\n", len(r.Requests))
	if n := int64(len(r.Requests)); n > 0 {
		fmt.Fprintf(w, "  mean total %.3fms, mean ttft %.3fms\n", ms(totalNS/n), ms(ttftNS/n))
	}
	var segSum int64
	for _, k := range srvKinds {
		segSum += r.SegmentNS[k]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  segment\ttotal\tshare")
	for _, k := range srvKinds {
		v := r.SegmentNS[k]
		if v == 0 {
			continue
		}
		share := 0.0
		if segSum > 0 {
			share = 100 * float64(v) / float64(segSum)
		}
		fmt.Fprintf(tw, "  %s\t%v\t%.1f%%\n", k, time.Duration(v), share)
	}
	tw.Flush()
	if len(r.Pools) > 0 {
		fmt.Fprintf(w, "pools (imbalance %.2f):\n", r.Imbalance)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  pool\titers\tprefills\tbusy\tmean-pool\tshare")
		for _, p := range r.Pools {
			fmt.Fprintf(tw, "  %d\t%d\t%d\t%v\t%.2f\t%.1f%%\n",
				p.Pool, p.Iterations, p.Prefills, time.Duration(p.BusyNS), p.MeanPool, 100*p.Share)
		}
		tw.Flush()
	}
	fmt.Fprintf(w, "kv pressure: %d episode(s)\n", len(r.Episodes))
	for _, ep := range r.Episodes {
		fmt.Fprintf(w, "  pool %d: %v → %v, min free %d blocks, %d preemption(s)\n",
			ep.Pool, time.Duration(ep.StartNS), time.Duration(ep.EndNS), ep.MinFreeBlocks, ep.Preemptions)
	}
	if len(r.Counters) > 0 {
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "counters:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, r.Counters[k])
		}
		fmt.Fprintln(w)
	}
	return nil
}

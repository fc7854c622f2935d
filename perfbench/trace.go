package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval recorded from the benchmark's side of a
// layer boundary. Spans of one sampled packet (or compose round) share
// a trace id; times are ns since the pass began.
type span struct {
	Trace int32  `json:"trace"`
	Name  string `json:"span"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanTree names each span's parent and the layer its self time is
// charged to. "packet" and "round" are roots synthesized per trace id
// from the earliest start to the latest end of its spans. Layers ending
// in "_wait" are time a packet spent waiting, not work: the open loop
// running late, fleet.Submit blocked on a full queue, a batch queued
// before its handler runs.
var spanTree = map[string]struct{ parent, layer string }{
	"gen.wait":        {"packet", "gen_wait"},
	"gen":             {"packet", "gen"},
	"overload.submit": {"gen", "overload"},
	"fleet.submit":    {"gen", "fleet_submit_wait"},
	"fleet.wait":      {"packet", "fleet_wait"},
	"fleet.handle":    {"packet", "fleet"},
	"supervise.call":  {"fleet.handle", "supervise"},
	"machine.packet":  {"supervise.call", "machine"},
	"build.cold":      {"round", "build"},
	"build.warm":      {"round", "build"},
	"build.flat":      {"round", "build"},
	"assemble":        {"round", "assemble"},
}

// traceLayers lists every layer a trace charges, in report order.
var traceLayers = []string{"gen_wait", "gen", "overload", "fleet_submit_wait", "fleet_wait",
	"fleet", "supervise", "machine", "build", "assemble"}

// analyzeSpans computes, over all sampled traces, each layer's self
// time — a span's duration minus its children's — as a share of the
// traces' total duration, and the mean self time per trace. It
// synthesizes the fleet.wait span (submit return to handler entry)
// first, since neither side sees both ends.
func analyzeSpans(spans []span, out *outcome) []span {
	byTrace := map[int32][]span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	ids := make([]int32, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	self := map[string]float64{}
	var total float64
	var all []span
	for _, id := range ids {
		ss := byTrace[id]
		named := map[string]span{}
		for _, s := range ss {
			named[s.Name] = s
		}
		sub, okSub := named["fleet.submit"]
		if !okSub {
			sub, okSub = named["overload.submit"]
		}
		if h, ok := named["fleet.handle"]; ok && okSub {
			w := span{Trace: id, Name: "fleet.wait", Start: sub.End, End: max(h.Start, sub.End)}
			ss = append(ss, w)
		}
		start, end := ss[0].Start, ss[0].End
		children := map[string]int64{}
		for _, s := range ss {
			start, end = min(start, s.Start), max(end, s.End)
			children[spanTree[s.Name].parent] += s.End - s.Start
		}
		for _, s := range ss {
			node, ok := spanTree[s.Name]
			if !ok {
				continue
			}
			self[node.layer] += float64(s.End - s.Start - children[s.Name])
		}
		total += float64(end - start)
		all = append(all, ss...)
	}
	for _, layer := range traceLayers {
		out.set("trace."+layer+"_frac", "frac", ratio(self[layer], total))
		out.detail["trace."+layer+"_self_ns_mean"] = ratio(self[layer], float64(len(ids)))
	}
	out.set("trace.spans", "count", float64(len(all)))
	out.detail["trace.sampled"] = len(ids)
	return all
}

// spansDir is where a traced run writes its spans, inside the checkout.
const spansDir = ".bench_build/spans"

// writeSpans writes spans as JSON lines to spansDir/name.
func writeSpans(name string, spans []span) (string, error) {
	if err := os.MkdirAll(spansDir, 0o777); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(spansDir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, f.Close()
}

package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// The NDJSON export format: one JSON object per line, every line carrying a
// "type" discriminator, and — crucially for golden files and diffing — a
// byte-stable layout. Lines are hand-assembled so the field order is fixed
// by this file, not by a marshaler:
//
//	{"type":"meta","schema":1}
//	{"type":"span","seq":0,"phase":"sample","start_ns":0,"dur_ns":1000,"fields":{"seeds":64}}
//	{"type":"counter","name":"train.micro_batches","value":4}
//	{"type":"gauge","name":"plan.k","value":4}
//	{"type":"hist","name":"span.sample_ns","count":3,"sum":3000,"bounds":[...],"counts":[...]}
//
// Spans come first in sequence order, then counters, gauges, and histograms
// each sorted by name. Metric values are commutative atomics, so the bytes
// are identical for any worker count; span order is the End order, which
// is deterministic for the serial training loop.

// schemaVersion guards consumers against layout changes.
const schemaVersion = 1

// Records renders the full export, one NDJSON line per element (no
// trailing newlines). The first record is the meta line.
func (r *Registry) Records() []string {
	if r == nil {
		return nil
	}
	var out []string
	out = append(out, fmt.Sprintf(`{"type":"meta","schema":%d}`, schemaVersion))
	for _, sp := range r.Spans() {
		out = append(out, spanLine(sp))
	}
	names, counters, gauges, hists := r.snapshot()
	for _, n := range names.counters {
		out = append(out, fmt.Sprintf(`{"type":"counter","name":%s,"value":%d}`,
			strconv.Quote(n), counters[n]))
	}
	for _, n := range names.gauges {
		out = append(out, fmt.Sprintf(`{"type":"gauge","name":%s,"value":%d}`,
			strconv.Quote(n), gauges[n]))
	}
	for _, n := range names.hists {
		h := hists[n]
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"type":"hist","name":%s,"count":%d,"sum":%d,"bounds":`,
			strconv.Quote(n), h.Count(), h.Sum())
		writeInts(&b, h.Bounds())
		b.WriteString(`,"counts":`)
		writeInts(&b, h.Counts())
		b.WriteByte('}')
		out = append(out, b.String())
	}
	return out
}

// WriteNDJSON writes the export to w, newline-terminated.
func (r *Registry) WriteNDJSON(w io.Writer) error {
	for _, line := range r.Records() {
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return fmt.Errorf("obs: write: %w", err)
		}
	}
	return nil
}

// WriteFile writes the export to path (created or truncated). A nil
// registry writes nothing and succeeds.
func (r *Registry) WriteFile(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := r.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// spanLine renders one span record with fields as a nested object sorted by
// key (SpanRecord.Fields are sorted at End).
func spanLine(sp SpanRecord) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"type":"span","seq":%d,"phase":%s,"start_ns":%d,"dur_ns":%d,"fields":{`,
		sp.Seq, strconv.Quote(sp.Phase), sp.StartNS, sp.DurNS)
	for i, f := range sp.Fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(f.Key))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(f.Val, 10))
	}
	b.WriteString("}}")
	return b.String()
}

// writeInts renders a JSON array of integers.
func writeInts(b *bytes.Buffer, vs []int64) {
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	b.WriteByte(']')
}

// metricNames holds the sorted name lists of one snapshot.
type metricNames struct {
	counters, gauges, hists []string
}

// snapshot collects every metric across the shards with names sorted, so
// the export order is independent of shard hashing and insertion order.
func (r *Registry) snapshot() (metricNames, map[string]int64, map[string]int64, map[string]*Histogram) {
	var names metricNames
	counters := make(map[string]int64)
	gauges := make(map[string]int64)
	hists := make(map[string]*Histogram)
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for n, c := range s.counters {
			names.counters = append(names.counters, n)
			counters[n] = c.Value()
		}
		for n, g := range s.gauges {
			names.gauges = append(names.gauges, n)
			gauges[n] = g.Value()
		}
		for n, h := range s.histograms {
			names.hists = append(names.hists, n)
			hists[n] = h
		}
		s.mu.Unlock()
	}
	sort.Strings(names.counters)
	sort.Strings(names.gauges)
	sort.Strings(names.hists)
	return names, counters, gauges, hists
}

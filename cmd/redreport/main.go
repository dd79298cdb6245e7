// Command redreport analyzes a flight-recorder dump (redmpirun -flight:
// the job's one event stream, a black box of each rank's last records
// or, with a large enough -flight-cap, the whole run) and prints the
// failure-forensics critical path: which recovery phases the run spent
// its time in, which rank was slowest in each, how many recovery
// episodes happened and what each cost, and how much rework (recomputed
// steps) the failures caused. With -perfetto it additionally exports the
// records as Chrome trace_event JSON loadable in Perfetto or
// chrome://tracing.
//
// Dumps from the default deterministic (logical-clock) mode carry no
// wall time; spans are then measured in "events" — the number of records
// the rank emitted inside the span — and the report is byte-identical
// across runs of the same seeded job. Dual-clock dumps (-flight-clock
// mono) get real durations.
//
// Examples:
//
//	redmpirun -app cg -np 8 -r 2 -flight box.jsonl ...
//	redreport box.jsonl
//	redreport -perfetto timeline.json box.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redreport:", err)
		os.Exit(1)
	}
}

// span is one paired B/E interval. In mono dumps start/length are
// nanoseconds; in logical dumps they are the begin Seq and the number of
// records the rank emitted inside the span (its "width" in events).
type span struct {
	Kind   string
	Rank   int
	Sphere int
	Step   int
	Start  int64
	Length int64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("redreport", flag.ContinueOnError)
	var (
		perfetto = fs.String("perfetto", "", "also write the records as Chrome trace_event JSON to this file")
		top      = fs.Int("top", 8, "span kinds to show in the phase table (0 = all)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: redreport [flags] dump.jsonl ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errors.New("no input files")
	}

	var recs []obs.Record
	for _, path := range fs.Args() {
		part, err := readDump(path)
		if err != nil {
			return err
		}
		recs = append(recs, part...)
	}
	// Canonical order: (rank, seq), the order the recorder dumps. Sorting
	// here makes multi-file merges and hand-edited inputs well-defined.
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Rank != recs[j].Rank {
			return recs[i].Rank < recs[j].Rank
		}
		return recs[i].Seq < recs[j].Seq
	})

	mono := false
	for _, r := range recs {
		if r.Nanos != 0 {
			mono = true
			break
		}
	}
	spans, unpaired := pairSpans(recs, mono)
	report(stdout, recs, spans, unpaired, mono, *top)

	if *perfetto != "" {
		if err := writePerfetto(*perfetto, recs, spans, mono); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "perfetto trace written to %s\n", *perfetto)
	}
	return nil
}

func readDump(path string) ([]obs.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []obs.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r obs.Record
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// pairSpans walks each rank's stream in order, pairing B/E records of
// the same kind with a per-(rank, kind) stack (spans of one kind nest on
// a rank; that is how every call site emits them). A B whose E was
// overwritten by the ring — or never emitted because the run died inside
// the phase — is returned in unpaired.
func pairSpans(recs []obs.Record, mono bool) (spans []span, unpaired []obs.Record) {
	type key struct {
		rank int
		kind string
	}
	open := make(map[key][]obs.Record)
	var keys []key
	for _, r := range recs {
		if r.Ev != "B" && r.Ev != "E" {
			continue
		}
		k := key{int(r.Rank), r.Kind}
		if r.Ev == "B" {
			if _, seen := open[k]; !seen {
				keys = append(keys, k)
			}
			open[k] = append(open[k], r)
			continue
		}
		stack := open[k]
		if len(stack) == 0 {
			// E without a retained B: the ring dropped the begin. Report
			// it as unpaired rather than inventing an interval.
			unpaired = append(unpaired, r)
			continue
		}
		b := stack[len(stack)-1]
		open[k] = stack[:len(stack)-1]
		sp := span{Kind: r.Kind, Rank: int(r.Rank), Sphere: int(b.Sphere), Step: int(b.Step)}
		if mono {
			sp.Start = b.Nanos
			sp.Length = r.Nanos - b.Nanos
		} else {
			sp.Start = int64(b.Seq)
			sp.Length = int64(r.Seq - b.Seq)
		}
		spans = append(spans, sp)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].kind < keys[j].kind
	})
	for _, k := range keys {
		unpaired = append(unpaired, open[k]...)
	}
	return spans, unpaired
}

// phaseStat aggregates one span kind.
type phaseStat struct {
	kind    string
	count   int
	total   int64
	max     int64
	maxRank int
}

func report(w io.Writer, recs []obs.Record, spans []span, unpaired []obs.Record, mono bool, top int) {
	ranks := make(map[int32]bool)
	points := make(map[string]int)
	for _, r := range recs {
		ranks[r.Rank] = true
		if r.Ev == "" {
			points[r.Kind]++
		}
	}
	clock, unit := "logical", "events"
	if mono {
		clock, unit = "mono", "wall time"
	}
	fmt.Fprintf(w, "flight report: %d records, %d ranks, clock=%s (durations in %s)\n",
		len(recs), len(ranks), clock, unit)

	byKind := make(map[string]*phaseStat)
	var kinds []string
	for _, sp := range spans {
		st := byKind[sp.Kind]
		if st == nil {
			st = &phaseStat{kind: sp.Kind, maxRank: sp.Rank}
			byKind[sp.Kind] = st
			kinds = append(kinds, sp.Kind)
		}
		st.count++
		st.total += sp.Length
		if sp.Length > st.max {
			st.max = sp.Length
			st.maxRank = sp.Rank
		}
	}
	// Critical path first: the phase the run spent the most time in.
	sort.Slice(kinds, func(i, j int) bool {
		a, b := byKind[kinds[i]], byKind[kinds[j]]
		if a.total != b.total {
			return a.total > b.total
		}
		return a.kind < b.kind
	})

	if top > 0 && len(kinds) > top {
		kinds = kinds[:top]
	}
	if len(kinds) > 0 {
		fmt.Fprintln(w, "\nphases (critical path, slowest first):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  kind\tcount\ttotal\tmean\tmax\tslowest rank")
		for _, k := range kinds {
			st := byKind[k]
			fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%s\t%d\n",
				st.kind, st.count,
				fmtDur(st.total, mono),
				fmtDur(st.total/int64(st.count), mono),
				fmtDur(st.max, mono),
				st.maxRank)
		}
		tw.Flush()
	}

	if len(points) > 0 {
		fmt.Fprintln(w, "\nevents:")
		var names []string
		for k := range points {
			names = append(names, k)
		}
		sort.Strings(names)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, k := range names {
			note := ""
			switch k {
			case "recompute":
				note = "\t(rework: steps redone at or below a prior high-water mark)"
			case "sphere_exhausted":
				note = "\t(job-failure triggers: every replica of a sphere dead)"
			}
			fmt.Fprintf(tw, "  %s\t%d%s\n", k, points[k], note)
		}
		tw.Flush()
	}

	reportRecoveries(w, recs, spans, mono)

	if len(unpaired) > 0 {
		fmt.Fprintf(w, "\nunpaired span markers: %d (ring overwrote the partner, or the run died mid-phase)\n", len(unpaired))
	}
}

// reportRecoveries breaks each recovery episode into its phases. The
// runner emits "recovery" spans on rank -1 with step = episode ordinal,
// tiled by recovery_drain / recovery_revive / recovery_resume children
// carrying the same (sphere, step).
func reportRecoveries(w io.Writer, recs []obs.Record, spans []span, mono bool) {
	type epKey struct{ sphere, step int }
	type episode struct {
		total  int64
		start  int64
		phases map[string]int64
	}
	eps := make(map[epKey]*episode)
	var order []epKey
	for _, sp := range spans {
		if sp.Kind != "recovery" {
			continue
		}
		k := epKey{sp.Sphere, sp.Step}
		if _, dup := eps[k]; !dup {
			order = append(order, k)
			eps[k] = &episode{total: sp.Length, start: sp.Start, phases: map[string]int64{}}
		}
	}
	if len(eps) == 0 {
		return
	}
	for _, sp := range spans {
		switch sp.Kind {
		case "recovery_drain", "recovery_revive", "recovery_resume":
			if ep := eps[epKey{sp.Sphere, sp.Step}]; ep != nil {
				ep.phases[sp.Kind] += sp.Length
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].step != order[j].step {
			return order[i].step < order[j].step
		}
		return order[i].sphere < order[j].sphere
	})
	fmt.Fprintln(w, "\nrecovery episodes:")
	for _, k := range order {
		ep := eps[k]
		line := fmt.Sprintf("  episode %d (sphere %d): total=%s", k.step, k.sphere, fmtDur(ep.total, mono))
		for _, ph := range []string{"recovery_drain", "recovery_revive", "recovery_resume"} {
			if d, ok := ep.phases[ph]; ok {
				line += fmt.Sprintf(" %s=%s", strings.TrimPrefix(ph, "recovery_"), fmtDur(d, mono))
			}
		}
		if mono {
			// Detection latency: last sphere_exhausted for this sphere that
			// precedes the recovery's begin.
			var trigger int64 = -1
			for _, r := range recs {
				if r.Kind == "sphere_exhausted" && int(r.Sphere) == k.sphere &&
					r.Nanos <= ep.start && r.Nanos > trigger {
					trigger = r.Nanos
				}
			}
			if trigger >= 0 {
				line += fmt.Sprintf(" detect=%s", fmtDur(ep.start-trigger, true))
			}
		}
		fmt.Fprintln(w, line)
	}
}

// fmtDur renders a span length: a wall duration in mono dumps, a plain
// event count in logical dumps.
func fmtDur(v int64, mono bool) string {
	if !mono {
		return fmt.Sprintf("%d", v)
	}
	return time.Duration(v).Round(time.Microsecond).String()
}

// traceEvent is one Chrome trace_event entry ("X" complete spans, "i"
// instants). ts and dur are microseconds per the format; logical dumps
// use the per-rank Seq as the timebase, which Perfetto renders as an
// ordinal timeline.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func writePerfetto(path string, recs []obs.Record, spans []span, mono bool) error {
	scale := 1.0 / 1e3 // ns → µs
	if !mono {
		scale = 1.0 // 1 event = 1 µs of ordinal time
	}
	var evs []traceEvent
	for _, sp := range spans {
		evs = append(evs, traceEvent{
			Name: sp.Kind, Ph: "X", Pid: 0, Tid: sp.Rank,
			Ts: float64(sp.Start) * scale, Dur: float64(sp.Length) * scale,
			Args: map[string]any{"sphere": sp.Sphere, "step": sp.Step},
		})
	}
	for _, r := range recs {
		if r.Ev != "" {
			continue
		}
		ts := float64(r.Nanos) * scale
		if !mono {
			ts = float64(r.Seq)
		}
		evs = append(evs, traceEvent{
			Name: r.Kind, Ph: "i", Pid: 0, Tid: int(r.Rank), Ts: ts, S: "t",
			Args: map[string]any{"sphere": r.Sphere, "step": r.Step, "arg": r.Arg},
		})
	}
	payload := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		Meta        string       `json:"displayTimeUnit"`
	}{TraceEvents: evs, Meta: "ms"}
	data, err := json.MarshalIndent(payload, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Command jobbench is the repository's job-level benchmark. It runs
// whole jobs through core.Run on the simulated transport, back to back
// in a closed loop (the next job is submitted when the previous one
// ends), under one of the paper's fault-tolerance regimes, checks every
// job's answer and recovery path, and prints one JSON result line.
//
//	jobbench --workload cg-cr --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates traced
// and untraced jobs and reports the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/redundancy"
)

// setupRounds is how many times a run builds its inputs and runs the
// bare reference; setup_s is their median.
const setupRounds = 3

// endToEnd and perLayer name the reported metrics and their units, in
// output order. BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"tts_s", "s"},
	{"recovery_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"apps.run_s", "s"}, {"apps.self_s", "s"}, {"apps.comm_s", "s"}, {"apps.steps", "count"},
	{"redundancy.calls", "count"}, {"redundancy.call_s", "s"}, {"redundancy.self_s", "s"},
	{"redundancy.recv_us_p50", "us"}, {"redundancy.app_bytes", "B"}, {"redundancy.fanout_x", "x"},
	{"redundancy.votes", "count"}, {"redundancy.mismatches", "count"},
	{"redundancy.envelopes", "count"}, {"redundancy.failovers", "count"},
	{"simmpi.sends", "count"}, {"simmpi.send_bytes", "B"}, {"simmpi.msgs_per_step", "1/step"},
	{"simmpi.bytes_per_step", "B/step"}, {"simmpi.send_s", "s"}, {"simmpi.recv_wait_s", "s"},
	{"simmpi.recv_us_p50", "us"}, {"simmpi.copies_elided", "count"}, {"simmpi.ctl_ops", "count"},
	{"simmpi.ctl_s", "s"},
	{"checkpoint.stable_writes", "count"}, {"checkpoint.stable_bytes", "B"},
	{"checkpoint.bytes_per_ckpt", "B"}, {"checkpoint.stable_write_s", "s"},
	{"checkpoint.commit_s", "s"}, {"checkpoint.stable_read_s", "s"}, {"checkpoint.stall_s", "s"},
	{"checkpoint.overlap_s", "s"}, {"checkpoint.commit_ratio", "ratio"},
	{"checkpoint.compress_x", "x"}, {"checkpoint.peer_bytes", "B"},
	{"checkpoint.peer_resident_bytes", "B"}, {"checkpoint.peer_fetch_remote", "count"},
	{"checkpoint.peer_fetch_retries", "count"},
	{"core.episodes", "count"}, {"core.detect_s", "s"}, {"core.repair_s", "s"},
	{"core.resume_s", "s"}, {"core.recomputed_steps", "count"}, {"core.useful_step_ratio", "ratio"},
	{"core.attempts", "count"}, {"core.partial_restarts", "count"}, {"core.shrink_episodes", "count"},
	{"trace.overhead_x", "x"}, {"ft.overhead_x", "x"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: cg-dual, cg-cr, stencil-partial or farm-shrink")
	seed := flag.Int64("seed", 1, "workload seed (kill schedules)")
	seconds := flag.Int("seconds", 10, "measured seconds of closed-loop jobs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced jobs")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	// Every rank is a goroutine; the benchmark's load is at most two
	// threads of Go code, whatever the machine.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var w *workload
	var ref reference
	var setups, bares []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		ws, err := newWorkloads()
		if err != nil {
			return err
		}
		got, ok := ws[*name]
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		r, err := got.runBare()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		bares = append(bares, r.bare.Seconds())
		if i > 0 && r.answer != ref.answer {
			return fmt.Errorf("%s: bare runs disagree: %v vs %v", *name, r.answer, ref.answer)
		}
		w, ref = got, r
	}
	ref.bare = time.Duration(median(bares) * float64(time.Second))
	rm, err := redundancy.NewRankMap(w.ranks, w.degree)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))

	// One unmeasured job warms the buffer pools and the page cache.
	if out := w.runJob(ref, w.kills(rng, rm), *trace == 1); out.err != nil {
		return fmt.Errorf("%s: warm-up job: %w", w.name, out.err)
	}

	var tracedTTS, untracedTTS, recovery []float64
	layers := map[string][]float64{}
	attempted, failed, wrong := 0, 0, 0
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := *trace == 1 && i%2 == 0
		out := w.runJob(ref, w.kills(rng, rm), traced)
		attempted++
		if out.err != nil {
			failed++
			if out.wrong {
				wrong++
			}
			fmt.Fprintf(os.Stderr, "jobbench: %s job %d failed: %v\n", w.name, i, out.err)
			continue
		}
		if traced {
			tracedTTS = append(tracedTTS, out.tts.Seconds())
			for k, v := range out.layers {
				layers[k] = append(layers[k], v)
			}
		} else {
			untracedTTS = append(untracedTTS, out.tts.Seconds())
			for _, e := range out.episodes {
				recovery = append(recovery, (e.resume - e.kill).Seconds())
			}
		}
	}
	if len(untracedTTS) == 0 || (*trace == 1 && len(tracedTTS) == 0) {
		return fmt.Errorf("%s: no job completed (%d attempted, %d failed)", w.name, attempted, failed)
	}

	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("jobbench: workload=%s seed=%d jobs=%d failed=%d (%.1f%%) wrong=%d\n",
		w.name, *seed, attempted, failed, 100*float64(failed)/float64(attempted), wrong)
	if *trace == 0 {
		values := map[string]float64{
			"tts_s":       median(untracedTTS),
			"recovery_s":  median(recovery),
			"setup_s":     median(setups),
			"peak_rss_mb": peakRSSMB(),
		}
		counts := map[string]int{"tts_s": len(untracedTTS), "recovery_s": len(recovery), "setup_s": len(setups), "peak_rss_mb": 1}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
			fmt.Printf("jobbench:   %-12s %12.6g %-3s (median, n=%d)\n", m.name, values[m.name], m.unit, counts[m.name])
		}
	} else {
		layers["trace.overhead_x"] = []float64{median(tracedTTS) / median(untracedTTS)}
		layers["ft.overhead_x"] = []float64{median(untracedTTS) / ref.bare.Seconds()}
		// Means, not medians: per job, apps.run_s is exactly self + comm
		// + stall, and only the mean keeps such sums across jobs.
		for _, m := range perLayer {
			v := mean(layers[m.name])
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Printf("jobbench:   %-32s %14.6g %s\n", m.name, v, m.unit)
		}
		fmt.Printf("jobbench:   (means over %d traced jobs; %d untraced jobs for the overheads)\n",
			len(tracedTTS), len(untracedTTS))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

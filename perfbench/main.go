// Command perfbench is monocle's end-to-end benchmark. It runs one named
// workload against the program in-process, through its public API and
// HTTP surface only, checks every output against a shadow model of the
// data plane, and prints the metrics as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced and the metrics are the per-layer ones, and the spans
// are written to the output directory. Build and run it through run.py:
//
//	python3 perfbench/run.py --workload steady_sim --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner and full-size shape.
// BENCHMARK.json lists steady_sim and cluster_wide; churn_live runs the
// same way but is a diagnostic of the proxy's known defects, whose
// failures vary from run to run (perfbench/notes.json, left_out).
var workloads = map[string]struct {
	run   func(context.Context, *run) error
	shape shape
}{
	"steady_sim":   {runSteady, shape{Switches: 8, Rules: 200, FaultsPerSec: 60, AlertRing: 256, Setups: 15}},
	"churn_live":   {runChurn, shape{Switches: 4, Rules: 100, FaultsPerSec: 10, OpsPerSec: 10, CadenceMs: 250, ObserveTimeoutMs: 25, Setups: 5}},
	"cluster_wide": {runCluster, shape{Switches: 128, Rules: 16, FaultsPerSec: 32, AlertRing: 128, Setups: 15}},
}

// e2eUnits and layerUnits name every reported metric with its unit, in
// BENCHMARK.json order.
var e2eUnits = [][2]string{
	{"setup_s", "s"},
	{"rules_verified_per_s", "1/s"},
	{"round_ms_p50", "ms"}, {"round_ms_p90", "ms"},
	{"confirm_ms_p50", "ms"}, {"confirm_ms_p90", "ms"},
	{"detect_ms_p50", "ms"}, {"detect_ms_p90", "ms"},
	{"read_ms_p50", "ms"}, {"read_ms_p90", "ms"},
	{"alloc_bytes_per_rule", "B"},
	{"peak_rss_mb", "MiB"},
}

var layerUnits = [][2]string{
	{"service.sweep_round_ms", "ms"}, {"service.apply_rule_ms", "ms"},
	{"policy.plan_ms", "ms"},
	{"probe.fleet_sweep_ms", "ms"},
	{"probe.sat_decisions", "count"}, {"probe.sat_propagations", "count"}, {"probe.sat_conflicts", "count"},
	{"probe.cache_syncs", "count"}, {"probe.cache_delta_rules", "count"},
	{"probe.dynamic_ms", "ms"},
	{"backend.observe_batch_ms", "ms"}, {"backend.observe_ms", "ms"}, {"backend.apply_ms", "ms"},
	{"backend.probes_per_s", "1/s"}, {"backend.timeouts", "count"},
	{"diff.fold_ms", "ms"}, {"diff.alerts", "count"},
	{"store.save_round_ms", "ms"}, {"store.save_rules_ms", "ms"}, {"store.bytes_written", "B"},
	{"sink.deliver_ms", "ms"},
	{"http.post_rules_ms", "ms"}, {"http.post_sweep_ms", "ms"},
	{"http.get_alerts_ms", "ms"}, {"http.get_sweeps_ms", "ms"}, {"http.get_metrics_ms", "ms"},
	{"http.response_bytes", "B"},
	{"cluster.sweep_overhead_ms", "ms"}, {"cluster.read_overhead_ms", "ms"},
	{"harness.gen_lag_ms_p90", "ms"}, {"harness.trace_overhead", "ratio"}, {"harness.unaccounted_share", "ratio"},
	{"runtime.gc_pause_ms", "ms"}, {"runtime.goroutines", "count"},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for state, spans and scratch files")
	commit := flag.String("commit", "unknown", "source revision recorded in the fingerprint")
	faultRate := flag.Float64("faults-per-s", 0, "calibration: fault arrival rate instead of the workload's (0: keep it)")
	opRate := flag.Float64("ops-per-s", 0, "calibration: churn_live rule-op rate instead of the workload's (0: keep it)")
	cadence := flag.Float64("cadence-ms", 0, "calibration: churn_live round cadence instead of the workload's (0: keep it)")
	timeout := flag.Float64("observe-timeout-ms", 0, "calibration: churn_live observe timeout instead of the workload's (0: keep it)")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	sh := w.shape
	if *faultRate > 0 {
		sh.FaultsPerSec = *faultRate
	}
	if *opRate > 0 && sh.OpsPerSec > 0 {
		sh.OpsPerSec = *opRate
	}
	if *cadence > 0 && sh.CadenceMs > 0 {
		sh.CadenceMs = *cadence
	}
	if *timeout > 0 && sh.ObserveTimeoutMs > 0 {
		sh.ObserveTimeoutMs = *timeout
	}
	r, err := measure(context.Background(), *workload, w.run, sh, *seed, *seconds, *traced == 1, *outDir)
	fp := fingerprint(*workload, *seed, *commit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res, info := r.report(*traced == 1)
	fp["host_steal_share"] = r.steal
	info["fingerprint"] = fp
	info["shape"] = sh
	if r.tr != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := r.tr.write(path, fp); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		info["spans"] = path
	}
	b, _ := json.Marshal(info)
	fmt.Printf("perfbench info %s\n", b)
	b, _ = json.Marshal(res)
	fmt.Printf("%s\n", b)
	return 0
}

// measure generates the inputs and runs the workload once.
func measure(ctx context.Context, workload string, fn func(context.Context, *run) error, sh shape, seed int64, seconds float64, traced bool, outDir string) (*run, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{in: generate(workload, seed, sh, seconds), seconds: seconds, dir: dir}
	if traced {
		r.tr = newTracer()
	}
	return r, fn(ctx, r)
}

// report turns a finished run into the result line and the info line.
// An untraced run that leaves an end-to-end metric without samples is
// incorrect: every end-to-end metric is defined on every workload.
func (r *run) report(traced bool) (result, map[string]any) {
	v := r.o.report()
	res := result{Correct: v.correct, Attempted: max(v.attempted, 1), Failed: v.failed, Metrics: make(map[string]metric)}
	if traced {
		values := r.layers()
		for _, u := range layerUnits {
			res.Metrics[u[0]] = metric{Value: values[u[0]], Unit: u[1]}
		}
	} else {
		values := r.e2e()
		for _, u := range e2eUnits {
			res.Metrics[u[0]] = metric{Value: values[u[0]], Unit: u[1]}
			if values[u[0]] == 0 {
				res.Correct = false
				v.unexplained = append(v.unexplained, "no samples for "+u[0])
			}
		}
	}
	info := map[string]any{
		"error_rate":            float64(v.failed) / float64(res.Attempted),
		"failures_by_kind":      v.kinds,
		"known_defect_failures": v.defect,
		"known_defects":         v.defects,
		"masked_faults":         v.masked,
		"unexplained_failures":  v.unexplained,
		"samples": map[string]int{
			"setup": len(r.setup), "round": len(r.round) + len(r.tracedRound) + len(r.untracedRound),
			"confirm": len(r.o.confirm), "detect": len(r.o.detect), "read": len(r.read),
		},
		// Observations settled by silence cost exactly the observe
		// timeout, not program time (0: the sim backends never wait).
		"observe_timeout_ms": r.observeTimeout.Milliseconds(),
		"confirm_timeouts":   r.o.silent,
		"gen_lag_ms_p90":     r.lag.p90(),
	}
	if r.silence != nil {
		info["round_observations"] = r.silence.observations
		info["round_timeouts"] = r.silence.rounds
		info["detect_timeouts"] = r.silence.detections
		info["confirm_caught_ms_p50"] = r.o.caught.p50()
		info["confirm_caught_ms_p90"] = r.o.caught.p90()
	}
	return res, info
}

// e2e computes the end-to-end metrics.
func (r *run) e2e() map[string]float64 {
	m := map[string]float64{
		"setup_s":        r.setup.p50(),
		"round_ms_p50":   r.round.p50(),
		"round_ms_p90":   r.round.p90(),
		"confirm_ms_p50": r.o.confirm.p50(),
		"confirm_ms_p90": r.o.confirm.p90(),
		"detect_ms_p50":  r.o.detect.p50(),
		"detect_ms_p90":  r.o.detect.p90(),
		"read_ms_p50":    r.read.p50(),
		"read_ms_p90":    r.read.p90(),
		"peak_rss_mb":    peakRSSMiB(),
	}
	if r.window > 0 {
		m["rules_verified_per_s"] = float64(r.rulesVerified) / r.window.Seconds()
	}
	if r.rulesVerified > 0 {
		m["alloc_bytes_per_rule"] = float64(r.allocBytes) / float64(r.rulesVerified)
	}
	return m
}

// layers computes the per-layer metrics from the traced run's spans and
// counters. Times are medians of one sample per call (per round for the
// per-switch ObserveBatch calls).
func (r *run) layers() map[string]float64 {
	t := r.tr
	m := map[string]float64{
		"service.sweep_round_ms":   t.durations("service.sweep_round").p50(),
		"service.apply_rule_ms":    t.durations("service.apply_rule").p50(),
		"policy.plan_ms":           t.durations("policy.plan").p50(),
		"probe.fleet_sweep_ms":     t.durations("probe.fleet_sweep").p50(),
		"probe.sat_decisions":      float64(r.sat.Decisions),
		"probe.sat_propagations":   float64(r.sat.Propagations),
		"probe.sat_conflicts":      float64(r.sat.Conflicts),
		"probe.cache_syncs":        float64(r.cacheSyncs),
		"probe.cache_delta_rules":  float64(r.cacheDelta),
		"probe.dynamic_ms":         t.durations("probe.dynamic").p50(),
		"backend.observe_batch_ms": t.perReq("backend.observe_batch").p50(),
		"backend.observe_ms":       t.durations("backend.observe").p50(),
		"backend.apply_ms":         t.durations("backend.apply").p50(),
		"backend.timeouts":         float64(r.timeouts + r.o.silent),
		"diff.fold_ms":             t.durations("diff.fold").p50(),
		"diff.alerts":              float64(r.diffAlerts),
		"store.save_round_ms":      t.durations("store.save_round").p50(),
		"store.save_rules_ms":      t.durations("store.save_rules").p50(),
		"store.bytes_written":      t.counter("store.bytes_written"),
		"sink.deliver_ms":          t.durations("sink.deliver").p50(),
		"http.post_rules_ms":       t.durations("http.post_rules").p50(),
		"http.post_sweep_ms":       t.durations("http.post_sweep").p50(),
		"http.get_alerts_ms":       t.durations("http.get_alerts").p50(),
		"http.get_sweeps_ms":       t.durations("http.get_sweeps").p50(),
		"http.get_metrics_ms":      t.durations("http.get_metrics").p50(),
		"harness.gen_lag_ms_p90":   r.lag.p90(),
		"runtime.gc_pause_ms":      float64(r.gcPause) / float64(time.Millisecond),
		"runtime.goroutines":       float64(r.goroutines),
	}
	if n := t.counter("http.responses"); n > 0 {
		m["http.response_bytes"] = t.counter("http.response_bytes") / n
	}
	if busy := t.durations("backend.observe_batch").sum(); busy > 0 {
		m["backend.probes_per_s"] = float64(r.probes) / (busy / 1000)
	}
	if len(r.coordSweep) > 0 && len(r.directSweep) > 0 {
		m["cluster.sweep_overhead_ms"] = r.coordSweep.p50() - r.directSweep.p50()
		m["cluster.read_overhead_ms"] = r.coordRead.p50() - r.directRead.p50()
	}
	if base := r.untracedRound.p50(); base > 0 {
		m["harness.trace_overhead"] = r.tracedRound.p50()/base - 1
	}
	// The share of a real round the layer spans do not account for: the
	// decomposed round's layers plus the store and sink spans inside
	// SweepRound, against SweepRound itself.
	if round := m["service.sweep_round_ms"]; round > 0 {
		parts := m["policy.plan_ms"] + m["probe.fleet_sweep_ms"] + m["backend.observe_batch_ms"] + m["diff.fold_ms"] +
			t.perReq("store.save_round").p50() + t.perReq("sink.deliver").p50()
		m["harness.unaccounted_share"] = 1 - parts/round
	}
	return m
}

// fingerprint describes the host and inputs a result was measured on.
func fingerprint(workload string, seed int64, commit string) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "workload": workload, "seed": seed,
	}
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"monocle"
)

// debounce is the diff engine's failing-streak threshold in every
// workload: one failing round raises rule_failing.
const debounce = 1

// run is one workload run's shared state and measurements.
type run struct {
	in      *inputs
	seconds float64
	tr      *tracer // nil for the untraced run
	dir     string  // scratch directory inside the checkout
	o       *oracle
	// observeTimeout is the proxy observe timeout (0 for sim backends).
	observeTimeout time.Duration
	// silence counts observations settled by silence in every round of
	// the measured window (nil for sim backends).
	silence *silenceCount

	setup samples // seconds, one per set-up
	round samples
	read  samples
	lag   samples

	rulesVerified uint64
	window        time.Duration
	steal         float64 // share of host CPU time stolen over the window
	allocBytes    uint64
	gcPause       time.Duration
	goroutines    int

	// traced-run extras
	untracedRound samples
	tracedRound   samples
	sat           monocle.WorkerStats
	cacheSyncs    int
	cacheDelta    int
	timeouts      int
	probes        int
	diffAlerts    int
	coordSweep    samples
	directSweep   samples
	coordRead     samples
	directRead    samples
}

// memWindow brackets the measured window with runtime.MemStats and
// host CPU time reads.
type memWindow struct {
	start       time.Time
	ms          runtime.MemStats
	steal, busy uint64
}

func openWindow() memWindow {
	var w memWindow
	runtime.GC()
	runtime.ReadMemStats(&w.ms)
	w.steal, w.busy = cpuTicks()
	w.start = time.Now()
	return w
}

// close records the window's length, allocation, GC pause and the share
// of host CPU time stolen by the hypervisor.
func (w memWindow) close(r *run) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.window = time.Since(w.start)
	r.allocBytes = end.TotalAlloc - w.ms.TotalAlloc
	r.gcPause = time.Duration(end.PauseTotalNs - w.ms.PauseTotalNs)
	r.goroutines = runtime.NumGoroutine()
	if steal, total := cpuTicks(); total > w.busy {
		r.steal = float64(steal-w.steal) / float64(total-w.busy)
	}
}

// cpuTicks reads the steal and total tick counts of all CPUs from
// /proc/stat (zeros when it cannot be read).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
		if i < 8 {
			total += n
		}
	}
	return steal, total
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// alertSink is the sink every workload attaches: a LogSink writing to
// io.Discard (the program's own delivery code, timed as sink.deliver)
// followed by the oracle, which stamps each alert's arrival.
type alertSink struct {
	inner *monocle.LogSink
	o     *oracle
	tr    *tracer
}

func newAlertSink(o *oracle, tr *tracer) *alertSink {
	return &alertSink{inner: monocle.NewLogSink(log.New(io.Discard, "", 0)), o: o, tr: tr}
}

func (s *alertSink) Deliver(ctx context.Context, alerts []monocle.Alert) error {
	round := s.tr.roundID()
	k := s.tr.begin("sink.deliver", round, round)
	err := s.inner.Deliver(ctx, alerts)
	k.end()
	s.o.alerts(alerts, time.Now())
	return err
}

func (s *alertSink) Close() error { return s.inner.Close() }

// storeWrap times the FileStore's writes and counts the bytes its files
// grew by. Only the traced run installs it (through WithStore).
type storeWrap struct {
	monocle.Store
	tr  *tracer
	dir string

	mu   sync.Mutex
	size int64
}

func (s *storeWrap) grown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	ents, _ := os.ReadDir(s.dir)
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	if d := total - s.size; d > 0 {
		s.tr.count("store.bytes_written", float64(d))
	}
	s.size = total
}

func (s *storeWrap) SaveRound(state monocle.DifferState, alerts []monocle.Alert) error {
	round := s.tr.roundID()
	k := s.tr.begin("store.save_round", round, round)
	err := s.Store.SaveRound(state, alerts)
	k.end()
	s.grown()
	return err
}

func (s *storeWrap) SaveRules(id uint32, epoch uint64, rules []monocle.RuleSpec) error {
	op := s.tr.opID()
	k := s.tr.begin("store.save_rules", op, op)
	err := s.Store.SaveRules(id, epoch, rules)
	k.end()
	s.grown()
	return err
}

// serviceOptions returns the options every workload's Service shares,
// plus a state directory (empty: in memory). The traced run wraps the
// store so its writes are timed.
func (r *run) serviceOptions(sink *alertSink, stateDir string, extra ...monocle.Option) ([]monocle.Option, error) {
	opts := []monocle.Option{monocle.WithDebounce(debounce), monocle.WithAlertSink(sink)}
	if n := r.in.Shape.AlertRing; n > 0 {
		opts = append(opts, monocle.WithAlertSink(monocle.NewRingSink(n)))
	}
	if stateDir != "" {
		if r.tr == nil {
			opts = append(opts, monocle.WithStateDir(stateDir))
		} else {
			st, err := monocle.OpenFileStore(stateDir)
			if err != nil {
				return nil, err
			}
			opts = append(opts, monocle.WithStore(&storeWrap{Store: st, tr: r.tr, dir: stateDir}))
		}
	}
	return append(opts, extra...), nil
}

// httpWrap times every request a Service or Coordinator handler serves
// and counts the response bytes.
type httpWrap struct {
	inner http.Handler
	tr    *tracer
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

func (h *httpWrap) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	op := h.tr.opID()
	k := h.tr.begin(routeSpan(req.Method, req.URL.Path), op, op)
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, req)
	k.end()
	h.tr.count("http.response_bytes", float64(cw.n))
	h.tr.count("http.responses", 1)
}

// routeSpan names a request's span after its route.
func routeSpan(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasSuffix(path, "/rules"):
		return "http.post_rules"
	case method == http.MethodPost && path == "/sweep":
		return "http.post_sweep"
	case method == http.MethodGet && path == "/alerts":
		return "http.get_alerts"
	case method == http.MethodGet && path == "/sweeps":
		return "http.get_sweeps"
	case method == http.MethodGet && path == "/metrics":
		return "http.get_metrics"
	}
	return "http.other"
}

// handler wraps h for the traced run.
func (r *run) handler(h http.Handler) http.Handler {
	if r.tr == nil {
		return h
	}
	return &httpWrap{inner: h, tr: r.tr}
}

// server serves a handler on a loopback port until stop is called.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() {
	s.srv.Close()
	<-s.done
}

// newClient returns an HTTP client for one load-generator goroutine: one
// connection per host, reused across requests.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// do sends one request and returns the status and full body.
func do(c *http.Client, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// postRule sends one rule op and decodes its reply.
func postRule(c *http.Client, base string, sw uint32, op monocle.RuleOp) (ok bool, errText string, reply monocle.UpdateReply) {
	status, body, err := do(c, http.MethodPost, fmt.Sprintf("%s/switches/%d/rules", base, sw), op)
	switch {
	case err != nil:
		return false, err.Error(), reply
	case status/100 != 2:
		return false, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body)), reply
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return false, "bad reply: " + err.Error(), reply
	}
	return true, "", reply
}

// readRoutes are the dashboard reads, in the order they are cycled.
var readRoutes = []string{"/alerts", "/sweeps", "/metrics"}

// readHTTP performs one dashboard GET and checks it answered 200.
func readHTTP(c *http.Client, base, route string) error {
	status, _, err := do(c, http.MethodGet, base+route, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", route, status)
	}
	return err
}

// dashboardRead refreshes the dashboard once: GET /alerts, /sweeps and
// /metrics in turn, one read sample for the three.
func (r *run) dashboardRead(get func(route string) error) error {
	t := time.Now()
	for _, route := range readRoutes {
		if err := get(route); err != nil {
			return err
		}
	}
	r.read.add(time.Since(t))
	return nil
}

// getHandler returns a dashboard getter calling a handler in-process.
func getHandler(h http.Handler) func(string) error {
	return func(route string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", route, rec.Code)
		}
		return nil
	}
}

// getHTTP returns a dashboard getter over HTTP.
func getHTTP(c *http.Client, base string) func(string) error {
	return func(route string) error { return readHTTP(c, base, route) }
}

// monitorable returns the rules of the last sweep that have a probe.
func monitorable(recs []monocle.ResultRecord) map[ruleKey]bool {
	out := make(map[ruleKey]bool, len(recs))
	for _, rec := range recs {
		if rec.Probe != nil && !rec.Unmonitorable && rec.Error == "" {
			out[ruleKey{rec.Switch, rec.Rule}] = true
		}
	}
	return out
}

// nextVictim walks the seeded victim order from *cursor to the next
// monitorable rule without an open fault.
func nextVictim(in *inputs, cursor *int, ok map[ruleKey]bool, o *oracle) (ruleKey, bool) {
	for tries := 0; tries < len(in.Victims); tries++ {
		v := in.Victims[*cursor%len(in.Victims)]
		*cursor++
		k := ruleKey{v.Switch, in.rules[v.Switch][v.Index].ID}
		if ok[k] && !o.busy(k) {
			return k, true
		}
	}
	return ruleKey{}, false
}

// decomposedRound runs one sweep round through the public calls
// SweepRound is made of, one span each: the probe plan (with a policy),
// Fleet.Sweep or Fleet.SweepPlan, one ObserveBatch per switch on
// Fleet().Backend(id), and a fold into the harness-owned Differ.
// It counts probes, observations settled by silence on proxy switches,
// and the Differ's alerts.
func (r *run) decomposedRound(ctx context.Context, svc *monocle.Service, differ *monocle.Differ) error {
	tr := r.tr
	kr := tr.begin("harness.decomposed_round", 0, 0)
	fleet := svc.Fleet()
	var evs []monocle.SweepEvent
	if svc.Policy() != nil {
		kp := tr.begin("policy.plan", kr.id, kr.req)
		plans := svc.ProbePlans()
		kp.end()
		sel := make(map[uint32][]uint64, len(plans))
		for _, p := range plans {
			sel[p.Switch] = p.Rules
		}
		kf := tr.begin("probe.fleet_sweep", kr.id, kr.req)
		evs = fleet.SweepPlan(ctx, sel)
		kf.end()
	} else {
		kf := tr.begin("probe.fleet_sweep", kr.id, kr.req)
		evs = fleet.Sweep(ctx)
		kf.end()
	}
	verdicts := make([]monocle.Verdict, len(evs))
	errs := make([]error, len(evs))
	judged := make([]bool, len(evs))
	var probes []*monocle.Probe
	var expects []monocle.Expectation
	var idx []int
	for lo := 0; lo < len(evs); {
		hi := lo + 1
		for hi < len(evs) && evs[hi].SwitchID == evs[lo].SwitchID {
			hi++
		}
		be, ok := fleet.Backend(evs[lo].SwitchID)
		probes, expects, idx = probes[:0], expects[:0], idx[:0]
		for i := lo; ok && i < hi; i++ {
			if p := evs[i].Result.Probe; p != nil {
				probes = append(probes, p)
				expects = append(expects, monocle.ExpectPresent)
				idx = append(idx, i)
			}
		}
		if len(probes) > 0 {
			kb := tr.begin("backend.observe_batch", kr.id, kr.req)
			vs, es := monocle.ObserveBatch(ctx, be, probes, expects)
			kb.end()
			for j, i := range idx {
				verdicts[i], errs[i], judged[i] = vs[j], es[j], true
				if r.observeTimeout > 0 && es[j] == nil && vs[j] == silenceVerdict(probes[j]) {
					r.timeouts++
				}
			}
			r.probes += len(probes)
		}
		lo = hi
	}
	kd := tr.begin("diff.fold", kr.id, kr.req)
	for i, ev := range evs {
		switch {
		case judged[i] && errs[i] == nil:
			differ.ObserveVerdict(ev, verdicts[i])
		case judged[i] && (errors.Is(errs[i], monocle.ErrBackendDisconnected) || errors.Is(errs[i], monocle.ErrBackendClosed)):
			differ.ObserveSkipped(ev)
		default:
			differ.Observe(ev)
		}
	}
	r.diffAlerts += len(differ.EndSweep())
	kd.end()
	kr.end()
	return ctx.Err()
}

// satWork sums one full sweep's SAT counters over every verifier
// (Verifier.SweepStats).
func satWork(ctx context.Context, svc *monocle.Service) (ws monocle.WorkerStats) {
	fleet := svc.Fleet()
	for _, id := range fleet.Switches() {
		v, ok := fleet.Verifier(id)
		if !ok {
			continue
		}
		_, stats := v.SweepStats(ctx)
		for _, s := range stats {
			ws.Decisions += s.Decisions
			ws.Propagations += s.Propagations
			ws.Conflicts += s.Conflicts
		}
	}
	return ws
}

// cacheCounters snapshots the session-cache counters alone.
func cacheCounters(svc *monocle.Service) (syncs, delta int) {
	fleet := svc.Fleet()
	for _, id := range fleet.Switches() {
		if v, ok := fleet.Verifier(id); ok {
			cs := v.CacheStats()
			syncs += cs.Syncs
			delta += cs.DeltaRules
		}
	}
	return syncs, delta
}

// stateDir returns a fresh directory for one set-up's WAL.
func (r *run) stateDir(name string) (string, error) {
	d := filepath.Join(r.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// wait paces an open-loop generator: it sleeps until the due time (at
// most until end) or until wake is signalled, whichever comes first.
func wait(due time.Time, wake <-chan struct{}, end time.Time) {
	if due.After(end) {
		due = end
	}
	d := time.Until(due)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-wake:
	}
}

// stream is one open-loop event source: due returns the i-th event's
// due time (false once exhausted), act performs it.
type stream struct {
	due  func(i int) (time.Time, bool)
	act  func(i int, due time.Time) error
	next int
}

// openLoop is the second load-generator goroutine's loop: it performs
// every stream's events at their due times, regardless of how the
// program keeps up, and heals alerted faults as soon as the oracle
// queues them. Lateness against the due time is recorded as lag.
func (r *run) openLoop(end time.Time, heal func(*fault) error, streams ...*stream) error {
	var wake <-chan struct{} // nil: nothing to heal here, sleep through alerts
	if heal != nil {
		wake = r.o.wake
	}
	for {
		if err := r.heal(heal); err != nil {
			return err
		}
		now := time.Now()
		if !now.Before(end) {
			return nil
		}
		var pick *stream
		var due time.Time
		for _, s := range streams {
			if d, ok := s.due(s.next); ok && (pick == nil || d.Before(due)) {
				pick, due = s, d
			}
		}
		if pick == nil {
			wait(end, wake, end)
			continue
		}
		if now.Before(due) {
			wait(due, wake, end)
			continue
		}
		r.lag.add(now.Sub(due))
		i := pick.next
		pick.next++
		if err := pick.act(i, due); err != nil {
			return err
		}
	}
}

// heal hands every fault the oracle queued to fn (none when fn is nil:
// another goroutine heals).
func (r *run) heal(fn func(*fault) error) error {
	if fn == nil {
		return nil
	}
	for f := r.o.nextHeal(); f != nil; f = r.o.nextHeal() {
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// faultDue returns the due function of the seeded fault schedule.
func faultDue(start time.Time, faults []faultIn) func(int) (time.Time, bool) {
	return func(i int) (time.Time, bool) {
		if i >= len(faults) {
			return time.Time{}, false
		}
		return start.Add(time.Duration(faults[i].AtMs * float64(time.Millisecond))), true
	}
}

package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"monocle"
)

// clusterEnv is one cluster_wide set-up: in-process replicas, each
// serving HTTP on loopback, behind a Coordinator serving HTTP too.
type clusterEnv struct {
	replicas map[string]*monocle.Service
	urls     map[string]string
	servers  []*server
	coord    *monocle.Coordinator
	url      string
}

func (e *clusterEnv) close() {
	for _, s := range e.servers {
		s.stop()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, svc := range e.replicas {
		svc.Close()
	}
}

// owner returns the replica that owns a switch.
func (e *clusterEnv) owner(id uint32) *monocle.Service {
	return e.replicas[e.coord.Owner(id).Name]
}

const clusterReplicas = 2

// clusterSetup brings one set-up up: replicas (each with its own WAL)
// and Coordinator serving, switches registered through the Coordinator,
// base tables installed on their owners, the policy loaded through
// PUT /policy, and the first (cold) coordinated sweep done.
func (r *run) clusterSetup(c *http.Client, n int) (*clusterEnv, error) {
	e := &clusterEnv{replicas: make(map[string]*monocle.Service), urls: make(map[string]string)}
	fail := func(err error) (*clusterEnv, error) {
		e.close()
		return nil, err
	}
	r.o = newOracle(debounce)
	var specs []monocle.ReplicaSpec
	for i := 0; i < clusterReplicas; i++ {
		name := fmt.Sprintf("shard-%d", i)
		dir, err := r.stateDir(fmt.Sprintf("cluster-state-%d-%s", n, name))
		if err != nil {
			return fail(err)
		}
		opts, err := r.serviceOptions(newAlertSink(r.o, r.tr), dir)
		if err != nil {
			return fail(err)
		}
		svc := monocle.NewService(opts...)
		e.replicas[name] = svc
		s, err := serve(svc.Handler())
		if err != nil {
			return fail(err)
		}
		e.servers = append(e.servers, s)
		e.urls[name] = s.url
		specs = append(specs, monocle.ReplicaSpec{Name: name, URL: s.url})
	}
	coord, err := monocle.NewCoordinator(monocle.ClusterConfig{Replicas: specs})
	if err != nil {
		return fail(err)
	}
	e.coord = coord
	s, err := serve(r.handler(coord.Handler()))
	if err != nil {
		return fail(err)
	}
	e.servers = append(e.servers, s)
	e.url = s.url
	for _, id := range r.in.switchIDs() {
		spec := monocle.SwitchSpec{ID: id, Tags: []string{r.in.Tags[id]}}
		status, body, err := do(c, http.MethodPost, e.url+"/switches", spec)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("register switch %d: status %d: %s", id, status, body)
		}
		if err != nil {
			return fail(err)
		}
		if err := e.owner(id).InstallRules(id, cloneRules(r.in.rules[id])...); err != nil {
			return fail(err)
		}
		if err := r.o.load(id, r.in.rules[id], false); err != nil {
			return fail(err)
		}
	}
	status, body, err := do(c, http.MethodPut, e.url+"/policy", r.in.Policy)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("PUT /policy: status %d: %s", status, body)
	}
	if err != nil {
		return fail(err)
	}
	if _, err := r.clusterSweep(c, e.url); err != nil {
		return fail(err)
	}
	r.o.round(e.probed())
	return e, nil
}

// clusterSweep sends one POST /sweep and returns its wall time.
func (r *run) clusterSweep(c *http.Client, url string) (time.Duration, error) {
	t := time.Now()
	status, body, err := do(c, http.MethodPost, url+"/sweep", nil)
	d := time.Since(t)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /sweep: status %d: %s", status, body)
	}
	return d, err
}

// probed returns the predicate "the last round probed this rule", from
// the owning replicas' last sweeps (sampled groups skip rules).
func (e *clusterEnv) probed() func(ruleKey) bool {
	var seen map[ruleKey]bool
	return func(k ruleKey) bool {
		if seen == nil {
			seen = make(map[ruleKey]bool)
			for _, svc := range e.replicas {
				for _, rec := range svc.LastSweep() {
					seen[ruleKey{rec.Switch, rec.Rule}] = true
				}
			}
		}
		return seen[k]
	}
}

// runCluster is cluster_wide: replicas behind a Coordinator over
// loopback HTTP, each with its WAL on, many small sim tables under a
// two-group tag policy. One goroutine runs a closed loop of POST /sweep
// through the Coordinator, each followed by one dashboard read of
// /alerts, /sweeps and /metrics, with a slow trickle of
// dataplane:"actual" faults; each fault is
// repaired after its alert by re-pushing the rule (modify, both planes),
// whose verdict is the confirmation.
//
// The traced run rotates its rounds between four kinds: through the
// Coordinator; directly to each replica over HTTP (the baseline of the
// cluster overheads); decomposed per replica; and Service.SweepRound
// called on each replica.
func runCluster(ctx context.Context, r *run) error {
	in := r.in
	c := newClient()
	defer c.CloseIdleConnections()
	var e *clusterEnv
	for k := 0; k < in.Shape.Setups; k++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = r.clusterSetup(c, k); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer e.close()

	// Fault victims come from the rules the cold round probed.
	ok := make(map[ruleKey]bool)
	for _, svc := range e.replicas {
		for k := range monitorable(svc.LastSweep()) {
			ok[k] = true
		}
	}
	differs := make(map[string]*monocle.Differ)
	for name := range e.replicas {
		differs[name] = monocle.NewDiffer(monocle.WithDebounce(debounce))
	}

	w := openWindow()
	start := w.start
	end := start.Add(time.Duration(r.seconds * float64(time.Second)))
	swept0 := r.clusterSwept(e)
	tracedFrom := end
	if r.tr != nil {
		tracedFrom = end.Add(-time.Duration(0.75 * r.seconds * float64(time.Second)))
	}
	repair := func(f *fault) error { return r.clusterRepair(c, e, f) }
	dueOf := faultDue(start, in.Faults)
	cursor, nextFault := 0, 0
	// caches sums the replicas' session-cache counters.
	caches := func() (syncs, delta int) {
		for _, svc := range e.replicas {
			s, d := cacheCounters(svc)
			syncs, delta = syncs+s, delta+d
		}
		return syncs, delta
	}
	syncs0, delta0 := 0, 0
	for n := 0; time.Now().Before(end); n++ {
		if r.tr != nil && !r.tr.enabled() && !time.Now().Before(tracedFrom) {
			r.tr.on.Store(true)
			for _, svc := range e.replicas {
				ws := satWork(ctx, svc)
				r.sat.Decisions += ws.Decisions
				r.sat.Propagations += ws.Propagations
				r.sat.Conflicts += ws.Conflicts
			}
			syncs0, delta0 = caches()
			n = 0
		}
		for due, has := dueOf(nextFault); has && !due.After(time.Now()); due, has = dueOf(nextFault) {
			r.lag.add(time.Since(due))
			if err := r.clusterFault(c, e, &cursor, ok, nextFault, due); err != nil {
				return err
			}
			nextFault++
		}
		kind := 0
		if r.tr.enabled() {
			kind = n % 4
		}
		if err := r.clusterRound(ctx, c, e, differs, kind, repair); err != nil {
			return err
		}
	}
	w.close(r)
	r.rulesVerified = r.clusterSwept(e) - swept0
	if r.tr.enabled() {
		syncs, delta := caches()
		r.cacheSyncs, r.cacheDelta = syncs-syncs0, delta-delta0
	}
	return nil
}

// clusterSwept sums the replicas' rules-swept counters.
func (r *run) clusterSwept(e *clusterEnv) uint64 {
	var n uint64
	for _, svc := range e.replicas {
		n += svc.Metrics().RulesSwept
	}
	return n
}

// clusterFault injects one dataplane:"actual" fault through the
// Coordinator.
func (r *run) clusterFault(c *http.Client, e *clusterEnv, cursor *int, ok map[ruleKey]bool, i int, due time.Time) error {
	k, found := nextVictim(r.in, cursor, ok, r.o)
	if !found {
		return nil
	}
	orig, _ := r.o.rule(k)
	actions := faultActions(orig, r.in.Faults[i].Alt)
	if err := r.o.injected(k, due, orig, actions, false); err != nil {
		return err
	}
	op := monocle.RuleOp{Op: "modify", ID: k.rule, Actions: actions, Dataplane: "actual"}
	if okOp, errText, _ := postRule(c, e.url, k.sw, op); !okOp {
		return fmt.Errorf("fault on switch %d rule %d: %s", k.sw, k.rule, errText)
	}
	return nil
}

// clusterRepair re-pushes a faulted rule with its intended actions on
// both planes through the Coordinator; the reply's verdict confirms it.
// The repair is due when the round loop issues it, right after the
// round that alerted.
func (r *run) clusterRepair(c *http.Client, e *clusterEnv, f *fault) error {
	due := time.Now()
	if err := r.o.healed(f); err != nil {
		return err
	}
	op := monocle.RuleOp{Op: "modify", ID: f.key.rule, Actions: actionSpecs(f.orig.Actions)}
	okOp, errText, reply := postRule(c, e.url, f.key.sw, op)
	r.o.ruleOp(f.key.sw, op, nil, okOp, errText, reply, time.Since(due))
	return nil
}

// clusterRound runs one round of the given kind, repairs the faults
// that alerted in it, and reads the dashboard.
func (r *run) clusterRound(ctx context.Context, c *http.Client, e *clusterEnv, differs map[string]*monocle.Differ, kind int, repair func(*fault) error) error {
	switch kind {
	case 0: // through the Coordinator
		d, err := r.clusterSweep(c, e.url)
		if err != nil {
			return err
		}
		r.o.round(e.probed())
		if err := r.heal(repair); err != nil {
			return err
		}
		if err := r.dashboardRead(getHTTP(c, e.url)); err != nil {
			return err
		}
		switch {
		case r.tr == nil:
			r.round.add(d)
		case r.tr.enabled():
			r.tracedRound.add(d)
			r.coordSweep.add(d)
			r.coordRead = append(r.coordRead, r.read[len(r.read)-1])
		default:
			r.untracedRound.add(d)
		}
	case 1: // directly to each replica: the slowest one bounds the round
		var slowest time.Duration
		for _, url := range e.urls {
			d, err := r.clusterSweep(c, url)
			if err != nil {
				return err
			}
			slowest = max(slowest, d)
		}
		r.o.round(e.probed())
		r.directSweep.add(slowest)
		if err := r.heal(repair); err != nil {
			return err
		}
		var read time.Duration
		for _, route := range readRoutes {
			var slow time.Duration
			for _, url := range e.urls {
				t := time.Now()
				if err := readHTTP(c, url, route); err != nil {
					return err
				}
				slow = max(slow, time.Since(t))
			}
			read += slow
		}
		r.directRead.add(read)
	case 2: // decomposed, per replica
		for name, svc := range e.replicas {
			if err := r.decomposedRound(ctx, svc, differs[name]); err != nil {
				return err
			}
		}
	default: // Service.SweepRound on each replica
		for _, svc := range e.replicas {
			k := r.tr.begin("service.sweep_round", 0, 0)
			r.tr.setRound(k.id)
			svc.SweepRound(ctx)
			k.end()
			r.tr.setRound(0)
		}
		r.o.round(e.probed())
		return r.heal(repair)
	}
	return nil
}

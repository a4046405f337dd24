package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"monocle"
)

// churnEnv is one churn_live set-up: live TCP switches, the service
// with its WAL, and its HTTP server.
type churnEnv struct {
	svc      *monocle.Service
	srv      *server
	switches map[uint32]*monocle.SwitchServer
}

func (e *churnEnv) close() {
	if e.srv != nil {
		e.srv.stop()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	for _, s := range e.switches {
		s.Close()
	}
}

// livePorts are the ports of every live switch, all peering back to
// the switch itself.
func livePorts(id uint32) ([]monocle.PortID, monocle.SwitchSpec) {
	ports := make([]monocle.PortID, numPorts)
	spec := monocle.SwitchSpec{ID: id, Backend: "proxy", Ports: make([]uint16, numPorts), Peers: make(map[uint16]uint32)}
	for i := range ports {
		ports[i] = monocle.PortID(i + 1)
		spec.Ports[i] = uint16(i + 1)
		spec.Peers[uint16(i+1)] = id
	}
	return ports, spec
}

// churnSetup brings one set-up up: switches listening, the service
// serving HTTP, switches registered through POST /switches, base tables
// installed, and the first (cold) round done.
func (r *run) churnSetup(ctx context.Context, c *http.Client, n int) (*churnEnv, error) {
	e := &churnEnv{switches: make(map[uint32]*monocle.SwitchServer)}
	fail := func(err error) (*churnEnv, error) {
		e.close()
		return nil, err
	}
	dir, err := r.stateDir(fmt.Sprintf("churn-state-%d", n))
	if err != nil {
		return fail(err)
	}
	r.o = newOracle(debounce)
	opts, err := r.serviceOptions(newAlertSink(r.o, r.tr), dir, monocle.WithDetectionTimeout(r.observeTimeout))
	if err != nil {
		return fail(err)
	}
	e.svc = monocle.NewService(opts...)
	if e.srv, err = serve(r.handler(e.svc.Handler())); err != nil {
		return fail(err)
	}
	for _, id := range r.in.switchIDs() {
		ports, spec := livePorts(id)
		sw, err := monocle.StartSwitchServer(monocle.SwitchServerConfig{ID: id, Ports: ports})
		if err != nil {
			return fail(err)
		}
		e.switches[id] = sw
		spec.Address = sw.Addr()
		status, body, err := do(c, http.MethodPost, e.srv.url+"/switches", spec)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("register switch %d: status %d: %s", id, status, body)
		}
		if err != nil {
			return fail(err)
		}
		if err := e.svc.InstallRules(id, cloneRules(r.in.rules[id])...); err != nil {
			return fail(err)
		}
		if err := r.o.load(id, r.in.rules[id], true); err != nil {
			return fail(err)
		}
	}
	e.svc.SweepRound(ctx)
	r.o.round(nil)
	return e, nil
}

// runChurn is churn_live: live TCP SwitchServers behind the proxy
// driver, the WAL on, rounds on a fixed cadence each followed by one
// dashboard read through the in-process handler, and an open-loop
// generator sending the seeded add/modify/delete mix over HTTP and
// FailRule faults (healed after their alert by HealRule plus a
// re-install).
func runChurn(ctx context.Context, r *run) error {
	in := r.in
	// Observations settled by silence cost exactly the observe timeout
	// (the service's WithDetectionTimeout).
	r.observeTimeout = ms(in.Shape.ObserveTimeoutMs)
	c := newClient()
	defer c.CloseIdleConnections()
	var e *churnEnv
	for k := 0; k < in.Shape.Setups; k++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = r.churnSetup(ctx, c, k); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer e.close()

	svc := e.svc
	ok := monitorable(svc.LastSweep())
	r.silence = newSilenceCount()
	r.o.probeOf = r.silence.probe
	heal := func(f *fault) error {
		if err := r.o.healed(f); err != nil {
			return err
		}
		e.switches[f.key.sw].HealRule(f.key.rule)
		// The switch forgot the rule: the controller re-installs it on
		// the data plane only (the expected table still has it).
		op := monocle.RuleOp{Op: "add", Rule: ptr(ruleSpec(f.orig)), Dataplane: "actual"}
		okOp, errText, _ := postRule(c, e.srv.url, f.key.sw, op)
		r.o.opResult(f.key.sw, okOp, fmt.Sprintf("re-install rule %d on switch %d: %s", f.key.rule, f.key.sw, errText))
		return nil
	}

	w := openWindow()
	start := w.start
	end := start.Add(time.Duration(r.seconds * float64(time.Second)))
	swept0 := svc.Metrics().RulesSwept
	cursor := 0
	faults := &stream{due: faultDue(start, in.Faults), act: func(i int, due time.Time) error {
		k, found := nextVictim(in, &cursor, ok, r.o)
		if !found {
			return nil
		}
		orig, _ := r.o.rule(k)
		if err := r.o.injected(k, due, orig, nil, true); err != nil {
			return err
		}
		e.switches[k.sw].FailRule(k.rule)
		return nil
	}}
	ops := &stream{
		due: func(i int) (time.Time, bool) {
			if i >= len(in.Ops) {
				return time.Time{}, false
			}
			return start.Add(time.Duration(in.Ops[i].AtMs * float64(time.Millisecond))), true
		},
		act: func(i int, due time.Time) error {
			r.churnOp(ctx, c, e, i, in.Ops[i], due)
			return nil
		},
	}

	var wg sync.WaitGroup
	var loopErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		loopErr = r.openLoop(end, heal, ops, faults)
	}()
	handler := r.handler(svc.Handler())
	err := r.roundLoop(ctx, svc, end, ms(in.Shape.CadenceMs), func() error {
		return r.dashboardRead(getHandler(handler))
	})
	wg.Wait()
	w.close(r)
	r.rulesVerified = svc.Metrics().RulesSwept - swept0
	return errors.Join(err, loopErr)
}

// churnOp sends one churn rule op and checks its verdict. The untraced
// run sends every op over HTTP. The traced run rotates ops between HTTP
// (http.post_rules), Service.ApplyRule (service.apply_rule) and the
// decomposed calls ApplyRule is made of (backend.apply, probe.dynamic,
// backend.observe), so each layer gets spans.
func (r *run) churnOp(ctx context.Context, c *http.Client, e *churnEnv, i int, in opIn, due time.Time) {
	sw, op := in.Switch, in.Op
	mode := 0
	if r.tr.enabled() {
		mode = i % 3
	}
	switch mode {
	case 0:
		k := r.tr.begin("harness.rule_op", 0, 0)
		r.tr.setOp(k.id)
		ok, errText, reply := postRule(c, e.srv.url, sw, op)
		k.end()
		r.tr.setOp(0)
		r.o.ruleOp(sw, op, in.rule, ok, errText, reply, time.Since(due))
	case 1:
		k := r.tr.begin("service.apply_rule", 0, 0)
		r.tr.setOp(k.id)
		reply, err := e.svc.ApplyRule(sw, op)
		k.end()
		r.tr.setOp(0)
		r.o.ruleOp(sw, op, in.rule, err == nil, errString(err), reply, time.Since(due))
	default:
		reply, err := r.decomposedOp(ctx, e.svc.Fleet(), in)
		r.o.ruleOp(sw, op, in.rule, err == nil, errString(err), reply, time.Since(due))
	}
}

// decomposedOp performs one rule op through the calls Service.ApplyRule
// makes: Backend.Apply, Verifier.Add/Modify/Delete and Backend.Observe
// of the confirmation probe.
func (r *run) decomposedOp(ctx context.Context, fleet *monocle.Fleet, in opIn) (monocle.UpdateReply, error) {
	sw, op := in.Switch, in.Op
	v, _ := fleet.Verifier(sw)
	be, _ := fleet.Backend(sw)
	reply := monocle.UpdateReply{Switch: sw, Rule: op.ID, Op: op.Op, Verdict: "none"}
	apply := func(bop monocle.BackendOp) error {
		k := r.tr.begin("backend.apply", 0, 0)
		defer k.end()
		return be.Apply(bop)
	}
	generate := func(f func() (*monocle.Probe, error)) (*monocle.Probe, error) {
		k := r.tr.begin("probe.dynamic", 0, 0)
		defer k.end()
		return f()
	}
	var (
		p      *monocle.Probe
		err    error
		expect monocle.Expectation
	)
	switch op.Op {
	case "add":
		reply.Rule, expect = in.rule.ID, monocle.ExpectPresent
		if err := apply(monocle.BackendOp{Op: "add", Rule: in.rule.Clone()}); err != nil {
			return reply, err
		}
		p, err = generate(func() (*monocle.Probe, error) { return v.Add(in.rule.Clone()) })
	case "modify":
		pre, _ := v.Rule(op.ID)
		expect = monocle.ExpectModified
		if err := apply(monocle.BackendOp{Op: "modify", ID: op.ID, Rule: pre, Actions: toActions(op.Actions)}); err != nil {
			return reply, err
		}
		p, err = generate(func() (*monocle.Probe, error) { return v.Modify(op.ID, toActions(op.Actions)) })
	case "delete":
		pre, _ := v.Rule(op.ID)
		expect = monocle.ExpectAbsent
		p, err = generate(func() (*monocle.Probe, error) { return v.Delete(op.ID) })
		if aerr := apply(monocle.BackendOp{Op: "delete", ID: op.ID, Rule: pre}); aerr != nil {
			return reply, aerr
		}
	}
	switch {
	case errors.Is(err, monocle.ErrUnmonitorable), errors.Is(err, monocle.ErrRewritesProbeField):
		reply.Verdict = "unmonitorable"
		return reply, nil
	case err != nil:
		return reply, err
	}
	rec := monocle.NewResultRecord(sw, v.Epoch(), monocle.ProbeResult{Rule: &monocle.Rule{ID: reply.Rule}, Probe: p})
	reply.Record = &rec
	ko := r.tr.begin("backend.observe", 0, 0)
	verdict, oerr := be.Observe(ctx, p, expect)
	ko.end()
	if oerr != nil {
		reply.Verdict = "unobserved"
		return reply, nil
	}
	reply.Verdict = verdict.String()
	return reply, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// ms converts milliseconds to a duration.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func ptr[T any](v T) *T { return &v }

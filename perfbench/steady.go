package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monocle"
)

// steadyReadEvery is how many rounds pass between two dashboard
// refreshes in steady_sim, so reads stay a small share of the loop.
const steadyReadEvery = 3

// runSteady is steady_sim: sim switches with Stanford-shaped tables,
// SweepRound back to back in memory. The expected tables never change.
// A second goroutine injects seeded data-plane faults through
// ApplyRule(dataplane:"actual") at Poisson arrivals. After each round
// the round loop heals the faults that alerted, confirms each heal with
// the rule's probe (Verifier.ProbeFor + Backend.Observe); every third
// round it also refreshes the dashboard through the in-process handler.
func runSteady(ctx context.Context, r *run) error {
	in := r.in
	var svc *monocle.Service
	for k := 0; k < in.Shape.Setups; k++ {
		if svc != nil {
			svc.Close()
		}
		t0 := time.Now()
		r.o = newOracle(debounce)
		opts, err := r.serviceOptions(newAlertSink(r.o, r.tr), "")
		if err != nil {
			return err
		}
		svc = monocle.NewService(opts...)
		for _, id := range in.switchIDs() {
			if _, err := svc.AddSwitch(monocle.SwitchSpec{ID: id}); err != nil {
				return err
			}
			if err := svc.InstallRules(id, cloneRules(in.rules[id])...); err != nil {
				return err
			}
			if err := r.o.load(id, in.rules[id], false); err != nil {
				return err
			}
		}
		svc.SweepRound(ctx)
		r.o.round(nil)
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer svc.Close()

	fleet := svc.Fleet()
	ok := monitorable(svc.LastSweep())
	handler := r.handler(svc.Handler())
	// apply sends one data-plane op (faults from the generator, heals from
	// the round loop). The traced run alternates between the Service
	// (service.apply_rule) and the Backend seam (backend.apply) so both
	// layers get spans.
	var applied atomic.Int64
	apply := func(sw uint32, op monocle.RuleOp) error {
		if n := applied.Add(1); r.tr.enabled() && n%2 == 0 {
			be, _ := fleet.Backend(sw)
			k := r.tr.begin("backend.apply", 0, 0)
			err := be.Apply(monocle.BackendOp{Op: op.Op, ID: op.ID, Actions: toActions(op.Actions)})
			k.end()
			return err
		}
		k := r.tr.begin("service.apply_rule", 0, 0)
		r.tr.setOp(k.id)
		_, err := svc.ApplyRule(sw, op)
		k.end()
		r.tr.setOp(0)
		return err
	}
	// A heal is due when the round loop issues it, right after the round
	// that alerted.
	heal := func(f *fault) error {
		due := time.Now()
		if err := r.o.healed(f); err != nil {
			return err
		}
		op := monocle.RuleOp{Op: "modify", ID: f.key.rule, Actions: actionSpecs(f.orig.Actions), Dataplane: "actual"}
		if err := apply(f.key.sw, op); err != nil {
			return fmt.Errorf("heal rule %d on switch %d: %w", f.key.rule, f.key.sw, err)
		}
		return r.confirm(ctx, fleet, f.key, due)
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
		actions := faultActions(orig, in.Faults[i].Alt)
		if err := r.o.injected(k, due, orig, actions, false); err != nil {
			return err
		}
		return apply(k.sw, monocle.RuleOp{Op: "modify", ID: k.rule, Actions: actions, Dataplane: "actual"})
	}}

	var wg sync.WaitGroup
	var loopErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		loopErr = r.openLoop(end, nil, faults)
	}()
	rounds := 0
	err := r.roundLoop(ctx, svc, end, 0, func() error {
		if err := r.heal(heal); err != nil {
			return err
		}
		if rounds++; rounds%steadyReadEvery != 0 {
			return nil
		}
		return r.dashboardRead(getHandler(handler))
	})
	wg.Wait()
	w.close(r)
	r.rulesVerified = svc.Metrics().RulesSwept - swept0
	return errors.Join(err, loopErr)
}

// confirm observes a healed rule's probe through the Backend seam and
// checks the verdict against the shadow data plane.
func (r *run) confirm(ctx context.Context, fleet *monocle.Fleet, k ruleKey, due time.Time) error {
	v, _ := fleet.Verifier(k.sw)
	be, _ := fleet.Backend(k.sw)
	kd := r.tr.begin("probe.dynamic", 0, 0)
	p, err := v.ProbeFor(k.rule)
	kd.end()
	if err != nil {
		return fmt.Errorf("probe for healed rule %d on switch %d: %w", k.rule, k.sw, err)
	}
	ko := r.tr.begin("backend.observe", 0, 0)
	verdict, err := be.Observe(ctx, p, monocle.ExpectPresent)
	ko.end()
	if err != nil {
		return fmt.Errorf("observe healed rule %d on switch %d: %w", k.rule, k.sw, err)
	}
	r.o.confirmed(k.sw, p, verdict, time.Since(due))
	return nil
}

// roundLoop runs sweep rounds until end: back to back (cadence 0) or on
// a fixed cadence with overruns rebased, as Service.Run does, calling
// after (when set) once each real round is done. The
// untraced run times every SweepRound. The traced run spends its first
// quarter untraced (the overhead baseline), takes the SAT and cache
// counters, then alternates SweepRound (span service.sweep_round, with
// the store and sink spans inside) with a decomposed round.
func (r *run) roundLoop(ctx context.Context, svc *monocle.Service, end time.Time, cadence time.Duration, after func() error) error {
	tracedFrom := end
	if r.tr != nil {
		tracedFrom = end.Add(-time.Duration(0.75 * r.seconds * float64(time.Second)))
	}
	var differ *monocle.Differ
	syncs0, delta0 := 0, 0
	next := time.Now()
	for n := 0; ; n++ {
		if cadence > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(cadence)
			if now := time.Now(); !next.After(now) {
				next = now.Add(cadence)
			}
		}
		if !time.Now().Before(end) {
			break
		}
		if r.tr != nil && !r.tr.enabled() && !time.Now().Before(tracedFrom) {
			r.tr.on.Store(true)
			r.sat = satWork(ctx, svc)
			syncs0, delta0 = cacheCounters(svc)
			differ = monocle.NewDiffer(monocle.WithDebounce(debounce))
			n = 0
		}
		if r.tr.enabled() && n%2 == 1 {
			r.decomposedRound(ctx, svc, differ)
			continue
		}
		if r.tr.enabled() {
			kp := r.tr.begin("policy.plan", 0, 0)
			svc.ProbePlans()
			kp.end()
		}
		k := r.tr.begin("service.sweep_round", 0, 0)
		r.tr.setRound(k.id)
		t := time.Now()
		svc.SweepRound(ctx)
		d := time.Since(t)
		k.end()
		r.tr.setRound(0)
		if r.silence != nil {
			if err := r.silence.afterRound(svc, r.o); err != nil {
				return err
			}
		}
		r.o.round(nil)
		if after != nil {
			if err := after(); err != nil {
				return err
			}
		}
		switch {
		case r.tr == nil:
			r.round.add(d)
		case r.tr.enabled():
			r.tracedRound.add(d)
		default:
			r.untracedRound.add(d)
		}
	}
	if r.tr.enabled() {
		syncs, delta := cacheCounters(svc)
		r.cacheSyncs, r.cacheDelta = syncs-syncs0, delta-delta0
	}
	return nil
}

func cloneRules(rules []*monocle.Rule) []*monocle.Rule {
	out := make([]*monocle.Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Clone()
	}
	return out
}

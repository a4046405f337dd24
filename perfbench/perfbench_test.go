package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"monocle"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames() {
		sh := workloads[name].shape
		a := generate(name, 7, sh, 5).encode()
		b := generate(name, 7, sh, 5).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if c := generate(name, 8, sh, 5).encode(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

// simOracle returns an oracle over one sim switch holding a small
// Stanford-shaped table.
func simOracle(t *testing.T) (*oracle, []*monocle.Rule) {
	t.Helper()
	p := monocle.StanfordDataset()
	p.Rules = 20
	_, rules := monocle.GenerateDataset(p)
	o := newOracle(debounce)
	if err := o.load(1, rules, false); err != nil {
		t.Fatal(err)
	}
	return o, rules
}

func TestOracleFlagsPlantedFalseAlert(t *testing.T) {
	o, rules := simOracle(t)
	o.alerts([]monocle.Alert{{Type: monocle.AlertRuleFailing, SwitchID: 1, Rule: rules[3].ID}}, time.Now())
	if v := o.report(); v.correct || v.failed != 1 || v.kinds["false_alert"] != 1 {
		t.Fatalf("false alert on a healthy rule: %+v", v)
	}
}

func TestOracleFlagsPlantedMissedDetection(t *testing.T) {
	o, rules := simOracle(t)
	k := ruleKey{1, rules[2].ID}
	if err := o.injected(k, time.Now(), rules[2], faultActions(rules[2], 3), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < debounce+1; i++ {
		o.round(nil)
	}
	if v := o.report(); v.correct || v.failed != 1 || v.kinds["missed"] != 1 {
		t.Fatalf("fault without an alert: %+v", v)
	}
	if f := o.nextHeal(); f == nil || f.key != k {
		t.Fatalf("missed fault not queued for its heal: %+v", f)
	}
}

// proxyOracle returns an oracle over one proxy switch holding a small
// Stanford-shaped table, and a forwarding rule and a drop rule of it.
func proxyOracle(t *testing.T) (o *oracle, fwd, drop *monocle.Rule) {
	t.Helper()
	p := monocle.StanfordDataset()
	p.Rules = 40
	_, rules := monocle.GenerateDataset(p)
	o = newOracle(debounce)
	if err := o.load(1, rules, true); err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		switch {
		case forwards(r.Actions) && fwd == nil:
			fwd = r
		case !forwards(r.Actions) && drop == nil:
			drop = r
		}
	}
	if fwd == nil || drop == nil {
		t.Fatal("table lacks a forwarding or a drop rule")
	}
	return o, fwd, drop
}

// TestOracleKnownDefectSignature pins the known-defect class on a proxy
// switch to its signature: a false alert on a forwarding rule, and a
// missed fault on a rule that already had one, are known; a false alert
// on a drop rule and a missed fault without the signature are not.
func TestOracleKnownDefectSignature(t *testing.T) {
	o, fwd, drop := proxyOracle(t)
	o.alerts([]monocle.Alert{{Type: monocle.AlertRuleFailing, SwitchID: 1, Rule: fwd.ID}}, time.Now())
	k := ruleKey{1, fwd.ID}
	if err := o.injected(k, time.Now(), fwd, nil, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < debounce+1; i++ {
		o.round(nil)
	}
	if v := o.report(); !v.correct || v.failed != 2 || v.defects[selfPeer] != 2 {
		t.Fatalf("self-peer false alert and the fault it hid: %+v", v)
	}

	o, fwd, drop = proxyOracle(t)
	o.alerts([]monocle.Alert{{Type: monocle.AlertRuleFailing, SwitchID: 1, Rule: drop.ID}}, time.Now())
	if v := o.report(); v.correct || v.failed != 1 || v.defect != 0 {
		t.Fatalf("false alert on a drop rule passed as the known defect: %+v", v)
	}

	o, fwd, _ = proxyOracle(t)
	if err := o.injected(ruleKey{1, fwd.ID}, time.Now(), fwd, nil, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < debounce+1; i++ {
		o.round(nil)
	}
	if v := o.report(); v.correct || v.kinds["missed"] != 1 || v.defect != 0 {
		t.Fatalf("missed fault without the signature passed as the known defect: %+v", v)
	}
}

// TestOracleExcusesMaskedFault: a fault the rule's probe cannot see on
// the faulted data plane is masked, not missed; a visible one is missed.
func TestOracleExcusesMaskedFault(t *testing.T) {
	o, rules := simOracle(t)
	v, err := monocle.NewVerifier()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Install(cloneRules(rules)...); err != nil {
		t.Fatal(err)
	}
	probes := make(map[uint64]*monocle.Probe)
	var probed []*monocle.Rule
	for _, res := range v.Sweep(context.Background()) {
		if res.Probe != nil {
			probes[res.Rule.ID] = res.Probe
			probed = append(probed, res.Rule)
		}
	}
	if len(probed) < 2 {
		t.Fatal("table has fewer than two monitorable rules")
	}
	o.probeOf = func(k ruleKey) *monocle.Probe { return probes[k.rule] }
	invisible, visible := probed[0], probed[1]
	if err := o.injected(ruleKey{1, invisible.ID}, time.Now(), invisible, actionSpecs(invisible.Actions), false); err != nil {
		t.Fatal(err)
	}
	if err := o.injected(ruleKey{1, visible.ID}, time.Now(), visible, faultActions(visible, 3), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < debounce+1; i++ {
		o.round(nil)
	}
	if v := o.report(); v.masked != 1 || v.failed != 1 || v.kinds["missed"] != 1 {
		t.Fatalf("one masked and one missed fault: %+v", v)
	}
}

func TestOracleAcceptsTimelyDetection(t *testing.T) {
	o, rules := simOracle(t)
	k := ruleKey{1, rules[2].ID}
	if err := o.injected(k, time.Now(), rules[2], faultActions(rules[2], 3), false); err != nil {
		t.Fatal(err)
	}
	o.round(nil)
	o.alerts([]monocle.Alert{{Type: monocle.AlertRuleFailing, SwitchID: 1, Rule: k.rule}}, time.Now())
	o.round(nil)
	f := o.nextHeal()
	if f == nil || !f.alerted {
		t.Fatalf("alerted fault not queued for its heal: %+v", f)
	}
	if err := o.healed(f); err != nil {
		t.Fatal(err)
	}
	o.alerts([]monocle.Alert{{Type: monocle.AlertRuleRecovered, SwitchID: 1, Rule: k.rule}}, time.Now())
	if v := o.report(); !v.correct || v.failed != 0 || v.attempted != 1 || len(o.detect) != 1 {
		t.Fatalf("timely detection: %+v, %d detect samples", v, len(o.detect))
	}
	if o.busy(k) {
		t.Fatal("recovered rule still has an open fault")
	}
}

// TestProbeRecordRoundTrip pins the reply decoding the verdict check
// relies on: a probe rebuilt from its result record judges every data
// plane like the original.
func TestProbeRecordRoundTrip(t *testing.T) {
	o, rules := simOracle(t)
	v, err := monocle.NewVerifier()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Install(cloneRules(rules)...); err != nil {
		t.Fatal(err)
	}
	broken := monocle.NewTable()
	for _, r := range rules[1:] {
		if err := broken.Insert(r.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range v.Sweep(context.Background()) {
		if res.Probe == nil {
			continue
		}
		rec := monocle.NewResultRecord(1, v.Epoch(), res)
		p, err := probeFromRecord(rec.Probe)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*monocle.Table{o.shadow[1], broken} {
			if got, want := monocle.EvaluateProbe(p, tb), monocle.EvaluateProbe(res.Probe, tb); got != want {
				t.Fatalf("rule %d: rebuilt probe judged %v, original %v", res.Rule.ID, got, want)
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints every metric of its kind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tiny := map[string]shape{
		"steady_sim":   {Switches: 2, Rules: 20, FaultsPerSec: 10, AlertRing: 16, Setups: 2},
		"churn_live":   {Switches: 2, Rules: 20, FaultsPerSec: 4, OpsPerSec: 4, CadenceMs: 250, ObserveTimeoutMs: 25, Setups: 1},
		"cluster_wide": {Switches: 8, Rules: 8, FaultsPerSec: 4, AlertRing: 8, Setups: 1},
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			r, err := measure(context.Background(), name, workloads[name].run, tiny[name], 3, 1.5, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res, _ := r.report(traced)
			units := e2eUnits
			if traced {
				units = layerUnits
			}
			if len(res.Metrics) != len(units) || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: %d metrics, attempted %d", name, traced, len(res.Metrics), res.Attempted)
			}
			for _, u := range units {
				if m, ok := res.Metrics[u[0]]; !ok || m.Unit != u[1] {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q", name, traced, u[0], m.Unit)
				}
			}
		}
	}
}

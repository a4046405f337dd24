package main

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"monocle"
)

// ruleKey names one rule of one switch.
type ruleKey struct {
	sw   uint32
	rule uint64
}

// fault is one injected data-plane fault, open until its rule recovers.
type fault struct {
	key    ruleKey
	due    time.Time
	orig   *monocle.Rule // the rule as the controller installed it
	rounds int           // rounds that probed the rule since injection
	// shadowed marks a fault injected while its rule had an open false
	// rule_failing alert: the diff engine cannot raise a second one.
	shadowed bool
	alerted  bool
	missed   bool
	healed   bool
}

// oracle is the benchmark's correctness check. It keeps a shadow copy of
// every switch's data plane (every rule op and every fault the harness
// applied), judges each rule op's verdict against EvaluateProbe on that
// shadow, checks that every fault raises rule_failing within debounce+1
// rounds that probe the rule, and that no healthy rule draws one.
//
// Every failed check counts in failed. A failure on a switch behind the
// live proxy driver that carries a known defect's signature counts in
// defect too (see the known* methods); any other failure is unexplained
// and makes the run incorrect.
type oracle struct {
	mu       sync.Mutex
	debounce int
	// proxy marks switches behind the live proxy driver.
	proxy map[uint32]bool

	shadow map[uint32]*monocle.Table
	open   map[ruleKey]*fault
	// changed marks rules a rule op added, modified or deleted since the
	// last round closed.
	changed map[ruleKey]bool
	// everFalse marks rules that drew a false rule_failing in the run.
	everFalse map[ruleKey]bool
	// falseOpen marks rules with a false rule_failing alert that no
	// rule_recovered has closed yet.
	falseOpen map[ruleKey]bool
	// probeOf returns the probe the program last swept a rule with (nil
	// when none is known); it classifies missed detections.
	probeOf func(ruleKey) *monocle.Probe
	// masked counts faults no probe could see (see round).
	masked int
	// detected lists the faults alerted since the last round closed
	// (kept only when probeOf is set).
	detected []ruleKey
	// toHeal queues alerted faults for the healer, in alert order.
	toHeal []*fault

	attempted   int
	failed      int
	defect      int
	defects     map[string]int
	kinds       map[string]int
	unexplained []string

	detect  samples
	confirm samples
	// silent counts confirmations settled by silence on a proxy switch:
	// their latency is the observe timeout, not program time. caught
	// holds the latencies of the others.
	silent int
	caught samples

	// wake signals the healer that a fault is waiting for its heal.
	wake chan struct{}
}

func newOracle(debounce int) *oracle {
	return &oracle{
		debounce:  debounce,
		proxy:     make(map[uint32]bool),
		shadow:    make(map[uint32]*monocle.Table),
		open:      make(map[ruleKey]*fault),
		falseOpen: make(map[ruleKey]bool),
		changed:   make(map[ruleKey]bool),
		everFalse: make(map[ruleKey]bool),
		kinds:     make(map[string]int),
		defects:   make(map[string]int),
		wake:      make(chan struct{}, 1),
	}
}

// queueHeal hands a fault to the healer. Callers hold o.mu.
func (o *oracle) queueHeal(f *fault) {
	o.toHeal = append(o.toHeal, f)
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// load records a switch's initial data plane.
func (o *oracle) load(sw uint32, rules []*monocle.Rule, proxy bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := monocle.NewTable()
	for _, r := range rules {
		if err := t.Insert(r.Clone()); err != nil {
			return fmt.Errorf("shadow table %d: %w", sw, err)
		}
	}
	o.shadow[sw] = t
	o.proxy[sw] = proxy
	return nil
}

// fail records one failed check of the given kind. defect names the
// known defect whose signature the failure carries ("": none); such a
// failure counts in defects too. Any other failure is unexplained.
func (o *oracle) fail(kind, defect string, format string, args ...any) {
	o.failed++
	o.kinds[kind]++
	if defect != "" {
		o.defect++
		o.defects[defect]++
		return
	}
	if len(o.unexplained) < 20 {
		o.unexplained = append(o.unexplained, fmt.Sprintf(format, args...))
	}
}

// The known defects (perfbench/notes.json, known_defects) show only on
// switches behind the live proxy driver, and only in the shapes below;
// every other failure, on any switch, is unexplained. Callers hold o.mu.
//
//   - proxy-self-peer: the proxy does not catch a probe its switch emits
//     on a port that peers back to the switch itself, and every port of
//     a live switch does, so such an observation settles by silence.
//   - proxy-stale-confirmation: a rule op's confirmation observes the
//     data plane as it was before the op.
//   - round-op-race: a round raises rule_failing on a rule that a rule op
//     changed or deleted while the round ran.

// emits reports whether the shadow data plane sends the packet out of a
// port, which on a proxy switch the proxy then fails to catch.
func emits(t *monocle.Table, h monocle.Header) bool {
	r := t.Lookup(h)
	return r != nil && len(r.Apply(h, func(int) int { return 0 })) > 0
}

// Names of the known defects.
const (
	selfPeer          = "proxy-self-peer"
	staleConfirmation = "proxy-stale-confirmation"
	roundOpRace       = "round-op-race"
)

// knownVerdict: the program read silence where the shadow emits the
// probe (proxy-self-peer), or, for a rule op, the verdict the data plane
// before the op yields (proxy-stale-confirmation; before is nil for
// other confirmations).
func (o *oracle) knownVerdict(sw uint32, p *monocle.Probe, verdict string, before *monocle.Table) string {
	switch {
	case !o.proxy[sw]:
		return ""
	case verdict == silenceVerdict(p).String() && emits(o.shadow[sw], p.Header):
		return selfPeer
	case before != nil && before != o.shadow[sw] && verdict == monocle.EvaluateProbe(p, before).String():
		return staleConfirmation
	}
	return ""
}

// knownFalseAlert: rule_failing on a rule that forwards, whose probe
// leaves on a self-peered port (proxy-self-peer), or on a rule a rule op
// changed since the last round closed (round-op-race).
func (o *oracle) knownFalseAlert(k ruleKey) string {
	r, ok := o.shadow[k.sw].Get(k.rule)
	switch {
	case !o.proxy[k.sw]:
		return ""
	case ok && forwards(r.Actions):
		return selfPeer
	case o.changed[k]:
		return roundOpRace
	}
	return ""
}

// knownOtherAlert: verdict_flapping on a rule that drew a false
// rule_failing in the run, whose verdict flips as rule ops move it
// between forwarding (read as failing) and dropping (proxy-self-peer).
func (o *oracle) knownOtherAlert(a monocle.Alert) string {
	k := ruleKey{a.SwitchID, a.Rule}
	if o.proxy[k.sw] && a.Type == monocle.AlertVerdictFlapping && o.everFalse[k] {
		return selfPeer
	}
	return ""
}

// knownMissed: the fault's rule already had an open false alert, so the
// diff engine had nothing new to raise; or silence reads the rule's
// probe as healthy and only a caught emission would show the fault.
func (o *oracle) knownMissed(f *fault) string {
	if !o.proxy[f.key.sw] {
		return ""
	}
	if f.shadowed || o.falseOpen[f.key] {
		return selfPeer
	}
	var p *monocle.Probe
	if o.probeOf != nil {
		p = o.probeOf(f.key)
	}
	t := o.shadow[f.key.sw]
	if p != nil && silenceVerdict(p) == monocle.VerdictConfirmed &&
		monocle.EvaluateProbe(p, t) != monocle.VerdictConfirmed && emits(t, p.Header) {
		return selfPeer
	}
	return ""
}

// isMasked reports whether the rule's last probe reads confirmed on the
// faulted shadow data plane (false when the probe is not known).
func (o *oracle) isMasked(f *fault) bool {
	if o.probeOf == nil {
		return false
	}
	p := o.probeOf(f.key)
	return p != nil && monocle.EvaluateProbe(p, o.shadow[f.key.sw]) == monocle.VerdictConfirmed
}

// describe names a rule's current shadow behaviour for failure reports.
func (o *oracle) describe(k ruleKey) string {
	r, ok := o.shadow[k.sw].Get(k.rule)
	switch {
	case !ok:
		return "not installed"
	case forwards(r.Actions):
		return "forwards"
	}
	return "drops"
}

// forwards reports whether a rule's actions send its traffic out.
func forwards(actions []monocle.Action) bool {
	for _, a := range actions {
		if a.Kind == kindOutput || a.Kind == kindECMP {
			return true
		}
	}
	return false
}

// rule returns the shadow's current copy of a rule.
func (o *oracle) rule(k ruleKey) (*monocle.Rule, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r, ok := o.shadow[k.sw].Get(k.rule)
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// busy reports whether a rule has an open fault, so a new fault on it
// could not be told apart.
func (o *oracle) busy(k ruleKey) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.open[k] != nil
}

// injected records a fault the harness is about to apply: the shadow
// takes the faulty actions, or loses the rule when deleted is set. It is
// recorded first so an alert that races the fault finds it open.
func (o *oracle) injected(k ruleKey, due time.Time, orig *monocle.Rule, actions []monocle.ActionSpec, deleted bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	t := o.shadow[k.sw]
	var err error
	if deleted {
		err = t.Delete(k.rule)
	} else {
		err = t.Modify(k.rule, toActions(actions))
	}
	if err != nil {
		return fmt.Errorf("shadow fault %v: %w", k, err)
	}
	o.open[k] = &fault{key: k, due: due, orig: orig, shadowed: o.falseOpen[k]}
	return nil
}

// healed records that a fault's rule was restored on the data plane.
func (o *oracle) healed(f *fault) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.shadow[f.key.sw]
	var err error
	if _, ok := t.Get(f.key.rule); ok {
		err = t.Modify(f.key.rule, f.orig.Actions)
	} else {
		err = t.Insert(f.orig.Clone())
	}
	if err != nil {
		return fmt.Errorf("shadow heal %v: %w", f.key, err)
	}
	f.healed = true
	if !f.alerted {
		// A missed fault never alerted, so no recovery will close it.
		delete(o.open, f.key)
	}
	return nil
}

// takeDetected returns and clears the rules whose faults alerted since
// the last call.
func (o *oracle) takeDetected() []ruleKey {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.detected
	o.detected = nil
	return out
}

// nextHeal pops the oldest alerted fault awaiting its heal.
func (o *oracle) nextHeal() *fault {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.toHeal) == 0 {
		return nil
	}
	f := o.toHeal[0]
	o.toHeal = o.toHeal[1:]
	return f
}

// alerts folds one sink delivery, stamped at its arrival.
func (o *oracle) alerts(alerts []monocle.Alert, at time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, a := range alerts {
		k := ruleKey{a.SwitchID, a.Rule}
		f := o.open[k]
		switch a.Type {
		case monocle.AlertRuleFailing:
			switch {
			case f != nil && !f.alerted && !f.missed:
				f.alerted = true
				o.detect.add(at.Sub(f.due))
				if o.probeOf != nil {
					o.detected = append(o.detected, k)
				}
				o.queueHeal(f)
			case f != nil:
				// A late alert for a fault already counted as missed.
			default:
				o.attempted++ // the rule's verification that went wrong
				o.fail("false_alert", o.knownFalseAlert(k), "false rule_failing on switch %d rule %d (%s)", k.sw, k.rule, o.describe(k))
				o.falseOpen[k] = true
				o.everFalse[k] = true
			}
		case monocle.AlertRuleRecovered:
			delete(o.falseOpen, k)
			if f != nil && f.healed {
				delete(o.open, k)
			}
		default:
			o.attempted++
			o.fail("other_alert", o.knownOtherAlert(a), "unexpected %s alert on switch %d rule %d", a.Type, k.sw, k.rule)
		}
	}
}

// round closes one completed sweep round: every open, unalerted fault
// whose rule the round probed ages by one round, and a fault that stays
// silent for debounce+1 such rounds is a missed detection, unless the
// rule's probe still reads confirmed on the faulted data plane: another
// fault masks it (for example, a forgotten drop rule above a forgotten
// forwarding rule still drops), so no monitor could see it. A masked
// fault is counted in masked, not failed.
func (o *oracle) round(probed func(ruleKey) bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	clear(o.changed)
	for _, f := range o.open {
		if f.alerted || f.missed || f.healed || (probed != nil && !probed(f.key)) {
			continue
		}
		f.rounds++
		if f.rounds >= o.debounce+1 {
			f.missed = true
			o.queueHeal(f)
			if o.isMasked(f) {
				o.masked++
				continue
			}
			o.fail("missed", o.knownMissed(f), "fault on switch %d rule %d not detected within %d rounds", f.key.sw, f.key.rule, f.rounds)
		}
	}
}

// ruleOp checks one rule operation's outcome against the shadow data
// plane, after applying the op to the shadow; added is the rule an add
// installs. ok is false when the op was refused (non-2xx or an error).
func (o *oracle) ruleOp(sw uint32, op monocle.RuleOp, added *monocle.Rule, ok bool, errText string, reply monocle.UpdateReply, latency time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.fail("refused", "", "rule op %s %d on switch %d refused: %s", op.Op, op.ID, sw, errText)
		return
	}
	t := o.shadow[sw]
	before := t
	if op.Dataplane == "" || op.Dataplane == "both" || op.Dataplane == "actual" {
		id := op.ID
		if op.Op == "add" {
			id = added.ID
		}
		o.changed[ruleKey{sw, id}] = true
		before = t.Clone()
		var err error
		switch op.Op {
		case "add":
			err = t.Insert(added.Clone())
		case "modify":
			err = t.Modify(op.ID, toActions(op.Actions))
		case "delete":
			err = t.Delete(op.ID)
		}
		if err != nil {
			o.fail("harness", "", "shadow rejected op %s on switch %d: %v", op.Op, sw, err)
			return
		}
	}
	switch reply.Verdict {
	case "", "none", "unobserved":
		return
	}
	o.confirm.add(latency)
	if reply.Record == nil || reply.Record.Probe == nil {
		return
	}
	p, err := probeFromRecord(reply.Record.Probe)
	if err != nil {
		o.fail("harness", "", "reply probe for rule %d on switch %d: %v", reply.Rule, sw, err)
		return
	}
	silent := reply.Verdict == silenceVerdict(p).String()
	if o.proxy[sw] && silent {
		o.silent++
	} else {
		o.caught.add(latency)
	}
	if want := monocle.EvaluateProbe(p, t).String(); reply.Verdict != want {
		o.fail(verdictKind(silent), o.knownVerdict(sw, p, reply.Verdict, before), "rule op %s rule %d on switch %d: verdict %s, shadow says %s (now %s)",
			op.Op, reply.Rule, sw, reply.Verdict, want, o.describe(ruleKey{sw, reply.Rule}))
	}
}

// opResult records a rule op that carries no verdict to check (a
// data-plane re-install), failing it when it was refused.
func (o *oracle) opResult(sw uint32, ok bool, what string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.fail("refused", "", "%s", what)
	}
}

// confirmed records a confirmation observed directly through the
// Backend seam (a probe from Verifier.ProbeFor after a heal).
func (o *oracle) confirmed(sw uint32, p *monocle.Probe, v monocle.Verdict, latency time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.confirm.add(latency)
	if o.proxy[sw] && v == silenceVerdict(p) {
		o.silent++
	} else {
		o.caught.add(latency)
	}
	if want := monocle.EvaluateProbe(p, o.shadow[sw]); v != want {
		o.fail(verdictKind(v == silenceVerdict(p)), o.knownVerdict(sw, p, v.String(), nil), "confirmation of rule %d on switch %d: verdict %s, shadow says %s", p.RuleID, sw, v, want)
	}
}

// verdictKind names a verdict disagreement: "verdict_silence" when the
// program's verdict is the one an observation that caught nothing
// yields, "verdict_other" otherwise.
func verdictKind(silent bool) string {
	if silent {
		return "verdict_silence"
	}
	return "verdict_other"
}

// silenceVerdict is the verdict an observation that caught nothing
// yields: the probe judged against a data plane that drops everything.
func silenceVerdict(p *monocle.Probe) monocle.Verdict {
	return monocle.EvaluateProbe(p, monocle.NewTable())
}

// verdictReport is the oracle's summary of a run.
type verdictReport struct {
	correct     bool
	attempted   int
	failed      int
	defect      int
	defects     map[string]int
	kinds       map[string]int
	unexplained []string
	masked      int
}

func (o *oracle) report() verdictReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	return verdictReport{
		correct: o.failed == o.defect, attempted: o.attempted, failed: o.failed, defect: o.defect,
		defects: maps.Clone(o.defects), kinds: maps.Clone(o.kinds), unexplained: append([]string(nil), o.unexplained...),
		masked: o.masked,
	}
}

// fieldByName maps OpenFlow field names to ids.
var fieldByName = func() map[string]monocle.FieldID {
	m := make(map[string]monocle.FieldID)
	for f := monocle.FieldID(0); f < monocle.NumFields; f++ {
		m[f.String()] = f
	}
	return m
}()

func headerFromMap(m map[string]uint64) (monocle.Header, error) {
	var h monocle.Header
	for name, v := range m {
		f, ok := fieldByName[name]
		if !ok {
			return h, fmt.Errorf("unknown header field %q", name)
		}
		h.Set(f, v)
	}
	return h, nil
}

func outcomeFromRecord(r monocle.OutcomeRecord) (monocle.Outcome, error) {
	o := monocle.Outcome{Drop: r.Drop, ECMP: r.ECMP}
	for _, e := range r.Emissions {
		h, err := headerFromMap(e.Header)
		if err != nil {
			return o, err
		}
		o.Emissions = append(o.Emissions, monocle.Emission{Port: monocle.PortID(e.Port), Header: h})
	}
	return o, nil
}

// probeFromRecord rebuilds the probe a reply's result record describes.
func probeFromRecord(r *monocle.ProbeRecord) (*monocle.Probe, error) {
	h, err := headerFromMap(r.Header)
	if err != nil {
		return nil, err
	}
	present, err := outcomeFromRecord(r.Present)
	if err != nil {
		return nil, err
	}
	absent, err := outcomeFromRecord(r.Absent)
	if err != nil {
		return nil, err
	}
	return &monocle.Probe{Header: h, Present: present, Absent: absent, Negative: r.Negative}, nil
}

// toActions builds flow actions from their JSON form.
func toActions(specs []monocle.ActionSpec) []monocle.Action {
	var out []monocle.Action
	for _, a := range specs {
		switch {
		case a.Set != nil:
			out = append(out, monocle.SetField(fieldByName[a.Set.Field], a.Set.Value))
		case len(a.ECMP) > 0:
			ports := make([]monocle.PortID, len(a.ECMP))
			for i, p := range a.ECMP {
				ports[i] = monocle.PortID(p)
			}
			out = append(out, monocle.ECMP(ports...))
		default:
			out = append(out, monocle.Output(monocle.PortID(a.Output)))
		}
	}
	return out
}

package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"

	"monocle"
)

// numPorts is the Stanford profile's egress port count; live switches
// get exactly these ports so every forwarding action has a port.
const numPorts = 16

// shape sizes one workload. The harness picks a shape per workload name;
// the self-tests shrink it.
type shape struct {
	Switches     int     `json:"switches"`
	Rules        int     `json:"rules"`
	FaultsPerSec float64 `json:"faults_per_s"`
	OpsPerSec    float64 `json:"ops_per_s"`
	// CadenceMs is the sweep-round cadence (0: rounds back to back).
	CadenceMs float64 `json:"cadence_ms,omitempty"`
	// ObserveTimeoutMs bounds each live proxy observation.
	ObserveTimeoutMs float64 `json:"observe_timeout_ms,omitempty"`
	// AlertRing is how many recent alerts each service keeps for
	// GET /alerts (0: the service default). It is small enough to fill
	// in the first seconds of a run, so a dashboard read costs the same
	// throughout the window instead of growing with the run's length.
	AlertRing int `json:"alert_ring,omitempty"`
	// Setups is how many times set-up is repeated; the last one is kept.
	Setups int `json:"setups"`
}

// faultIn is one scheduled data-plane fault. The victim is the next
// monitorable rule of the seeded victim order; Alt picks the wrong port
// a modify-fault sends the rule's traffic to.
type faultIn struct {
	AtMs float64 `json:"at_ms"`
	Alt  int     `json:"alt"`
}

// opIn is one scheduled rule operation (churn_live). rule is the flow
// rule an add installs (the op carries its JSON form).
type opIn struct {
	AtMs   float64        `json:"at_ms"`
	Switch uint32         `json:"switch"`
	Op     monocle.RuleOp `json:"op"`
	rule   *monocle.Rule
}

// victim names one base-table rule by switch and position.
type victim struct {
	Switch uint32 `json:"switch"`
	Index  int    `json:"index"`
}

// inputs is everything a run feeds the program, derived from the seed
// alone. encode renders it canonically for the determinism self-test.
type inputs struct {
	Workload string                        `json:"workload"`
	Seed     int64                         `json:"seed"`
	Shape    shape                         `json:"shape"`
	Tables   map[uint32][]monocle.RuleSpec `json:"tables"`
	Tags     map[uint32]string             `json:"tags,omitempty"`
	Policy   string                        `json:"policy,omitempty"`
	Faults   []faultIn                     `json:"faults"`
	Victims  []victim                      `json:"victims"`
	Ops      []opIn                        `json:"ops,omitempty"`

	// rules holds the same tables as flow rules (not encoded).
	rules map[uint32][]*monocle.Rule
}

func (in *inputs) encode() []byte {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // every field is plain data
	}
	return b
}

// switchIDs returns 1..Switches.
func (in *inputs) switchIDs() []uint32 {
	ids := make([]uint32, in.Shape.Switches)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return ids
}

// generate builds a workload's inputs from its seed, covering a window
// of horizonSec seconds of scheduled events.
func generate(workload string, seed int64, sh shape, horizonSec float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		Workload: workload, Seed: seed, Shape: sh,
		Tables: make(map[uint32][]monocle.RuleSpec),
		rules:  make(map[uint32][]*monocle.Rule),
	}
	// The tables are the fixed data set every seed shares (per-switch
	// profile seeds, as BenchmarkFleetResweep builds them), so a run's
	// cost does not depend on the seed; the seed drives the load.
	for _, id := range in.switchIDs() {
		p := monocle.StanfordDataset()
		p.Rules = sh.Rules
		p.Seed = int64(id) * 104729
		_, rules := monocle.GenerateDataset(p)
		in.rules[id] = rules
		specs := make([]monocle.RuleSpec, len(rules))
		for i, r := range rules {
			specs[i] = ruleSpec(r)
		}
		in.Tables[id] = specs
	}
	for _, idx := range rng.Perm(sh.Switches * sh.Rules) {
		in.Victims = append(in.Victims, victim{Switch: uint32(idx/sh.Rules + 1), Index: idx % sh.Rules})
	}
	for t := poisson(rng, sh.FaultsPerSec, 0); t < horizonSec*1000; t = poisson(rng, sh.FaultsPerSec, t) {
		in.Faults = append(in.Faults, faultIn{AtMs: t, Alt: 1 + rng.Intn(numPorts-1)})
	}
	switch workload {
	case "cluster_wide":
		// Like the tables, the policy and the tags are fixed.
		in.Tags = make(map[uint32]string)
		for _, id := range in.switchIDs() {
			in.Tags[id] = []string{"edge", "core"}[id%2]
		}
		in.Policy = clusterPolicy
	case "churn_live":
		in.Ops = churnOps(rng, sh, horizonSec)
	}
	return in
}

// clusterPolicy is cluster_wide's two-group tag policy: edge switches
// are swept in full, core switches sample half their rules per round.
const clusterPolicy = `policy edge {
  select tag "edge"
}

policy core {
  select tag "core"
  sample 50% seed 11
}
`

// poisson returns the next arrival after t (ms) of a Poisson process
// with the given rate per second; a zero rate never arrives.
func poisson(rng *rand.Rand, perSec, t float64) float64 {
	if perSec <= 0 {
		return 1e18
	}
	return t + rng.ExpFloat64()*1000/perSec
}

// churnOps generates churn_live's open-loop add/modify/delete mix, due
// at a fixed rate (evenly spaced, so an op queues behind another only
// when the program is slower than the spacing). Churn
// rules live in their own id, priority and address space (narrow
// matches in 198.18.0.0/15, priorities above the base table), so the
// base tables the faults target are never churned. Each switch keeps
// between four and sixteen churn rules live.
func churnOps(rng *rand.Rand, sh shape, horizonSec float64) []opIn {
	const target = 8
	live := make(map[uint32][]uint64)
	var next uint64
	var out []opIn
	for i := 0; float64(i)/sh.OpsPerSec < horizonSec; i++ {
		t := (float64(i) + 0.5) * 1000 / sh.OpsPerSec
		sw := uint32(1 + rng.Intn(sh.Switches))
		ids := live[sw]
		op := opIn{AtMs: t, Switch: sw}
		r := rng.Float64()
		if len(ids) >= 2*target {
			r = 0.4 + 0.6*r // full: modify or delete only
		}
		switch {
		case len(ids) < target/2 || r < 0.4:
			next++
			op.rule = churnRule(next, rng)
			op.Op = monocle.RuleOp{Op: "add", Rule: ptr(ruleSpec(op.rule))}
			live[sw] = append(ids, op.rule.ID)
		case r < 0.75:
			id := ids[rng.Intn(len(ids))]
			op.Op = monocle.RuleOp{Op: "modify", ID: id, Actions: actionSpecs(churnActions(rng))}
		default:
			i := rng.Intn(len(ids))
			op.Op = monocle.RuleOp{Op: "delete", ID: ids[i]}
			live[sw] = append(ids[:i:i], ids[i+1:]...)
		}
		out = append(out, op)
	}
	return out
}

// churnRule is the n-th churn rule: a TCP host route in the benchmarking
// range 198.18.0.0/15 with a priority no base rule uses.
func churnRule(n uint64, rng *rand.Rand) *monocle.Rule {
	m := monocle.MatchAll().
		With(monocle.EthType, monocle.Exact(monocle.EthType, monocle.EthTypeIPv4)).
		With(monocle.IPProto, monocle.Exact(monocle.IPProto, monocle.ProtoTCP)).
		With(monocle.IPDst, monocle.Prefix(monocle.IPDst, 198<<24|18<<16|n&0x1ffff, 32)).
		With(monocle.TPDst, monocle.Exact(monocle.TPDst, 1024+n%50000))
	return &monocle.Rule{ID: 1_000_000 + n, Priority: 10_000 + int(n), Match: m, Actions: churnActions(rng)}
}

// churnActions is a forwarding action to a seeded port, or a drop with
// the Stanford profile's deny share.
func churnActions(rng *rand.Rand) []monocle.Action {
	if rng.Float64() < monocle.StanfordDataset().DenyFraction {
		return nil
	}
	return []monocle.Action{monocle.Output(monocle.PortID(1 + rng.Intn(numPorts)))}
}

// ruleSpec converts a flow rule to the JSON form the HTTP surface takes.
func ruleSpec(r *monocle.Rule) monocle.RuleSpec {
	rs := monocle.RuleSpec{ID: r.ID, Priority: r.Priority}
	for f := monocle.FieldID(0); f < monocle.NumFields; f++ {
		t := r.Match[f]
		if t.Mask == 0 {
			continue
		}
		if rs.Match == nil {
			rs.Match = make(map[string]string)
		}
		full := uint64(1)<<uint(monocle.FieldWidth(f)) - 1
		ones := bits.OnesCount64(t.Mask)
		switch {
		case t.Mask == full:
			rs.Match[f.String()] = strconv.FormatUint(t.Value, 10)
		case t.Mask == full&^(full>>uint(ones)):
			rs.Match[f.String()] = fmt.Sprintf("%d/%d", t.Value, ones)
		default:
			rs.Match[f.String()] = fmt.Sprintf("0x%x&0x%x", t.Value, t.Mask)
		}
	}
	rs.Actions = actionSpecs(r.Actions)
	return rs
}

// kindOutput and kindECMP are the action kinds of the program's
// constructors (the kind constants themselves are not exported).
var (
	kindOutput = monocle.Output(1).Kind
	kindECMP   = monocle.ECMP(1).Kind
)

func actionSpecs(actions []monocle.Action) []monocle.ActionSpec {
	var out []monocle.ActionSpec
	for _, a := range actions {
		switch a.Kind {
		case kindOutput:
			out = append(out, monocle.ActionSpec{Output: uint16(a.Port)})
		case kindECMP:
			ports := make([]uint16, len(a.Ports))
			for i, p := range a.Ports {
				ports[i] = uint16(p)
			}
			out = append(out, monocle.ActionSpec{ECMP: ports})
		default:
			out = append(out, monocle.ActionSpec{Set: &monocle.SetFieldSpec{Field: a.Field.String(), Value: a.Value}})
		}
	}
	return out
}

// faultActions is the wrong behaviour a modify-fault installs on the
// data plane: the rule's traffic leaves on a different port (a drop rule
// starts forwarding).
func faultActions(r *monocle.Rule, alt int) []monocle.ActionSpec {
	port := 0
	for _, a := range r.Actions {
		if a.Kind == kindOutput {
			port = int(a.Port)
		}
	}
	if port == 0 {
		return []monocle.ActionSpec{{Output: uint16(alt)}}
	}
	return []monocle.ActionSpec{{Output: uint16((port-1+alt)%numPorts + 1)}}
}

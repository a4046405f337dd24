package main

import (
	"monocle"
)

// silenceCount counts, in every run, the sweep observations on proxy
// switches that settled by silence or timeout: they cost the observe
// timeout, not program time. SweepRound exposes no per-rule verdict, so
// after each round the count compares the diff engine's state (a rule
// whose latest observation failed has a non-zero streak) with the verdict
// silence yields for the rule's probe, taken from LastSweep: an
// observation that read the same as silence is counted. It is exact for
// healthy drop-rule probes (confirmed by silence) and an upper bound for
// failing forwarding probes, whose failing verdict could also be a caught
// packet on the wrong port. The traced run's decomposed rounds count
// silence exactly (backend.timeouts), which checks this count.
type silenceCount struct {
	probes map[ruleKey]sweptProbe

	observations int // round observations classified
	rounds       int // of those, settled by silence
	detections   int // detections silence alone would have raised
}

// sweptProbe is the probe a rule was last swept with and its epoch.
type sweptProbe struct {
	epoch uint64
	p     *monocle.Probe
	// silentOK: silence reads the probe as confirmed (a drop rule).
	silentOK bool
}

func newSilenceCount() *silenceCount {
	return &silenceCount{probes: make(map[ruleKey]sweptProbe)}
}

// probe returns the probe a rule was last swept with (nil: none yet).
func (c *silenceCount) probe(k ruleKey) *monocle.Probe { return c.probes[k].p }

// afterRound classifies the round SweepRound just completed and the
// detections the oracle recorded during it. Call it before o.round so
// the oracle's missed-detection check sees this round's probes.
func (c *silenceCount) afterRound(svc *monocle.Service, o *oracle) error {
	recs := svc.LastSweep()
	st := svc.Differ().State()
	for _, rec := range recs {
		if rec.Probe == nil {
			continue
		}
		k := ruleKey{rec.Switch, rec.Rule}
		sp, ok := c.probes[k]
		if !ok || sp.epoch != rec.Epoch {
			p, err := probeFromRecord(rec.Probe)
			if err != nil {
				return err
			}
			sp = sweptProbe{epoch: rec.Epoch, p: p, silentOK: silenceVerdict(p) == monocle.VerdictConfirmed}
			c.probes[k] = sp
		}
		failing := st.Switches[rec.Switch].Rules[rec.Rule].Streak > 0
		c.observations++
		if sp.silentOK != failing {
			c.rounds++
		}
	}
	for _, k := range o.takeDetected() {
		if sp, ok := c.probes[k]; ok && !sp.silentOK {
			c.detections++
		}
	}
	return nil
}

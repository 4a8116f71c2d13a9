package main

import (
	"time"

	"stellar/internal/engine"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// The workloads, by their fixed names. Sizes live here, next to the
// reason for each; toy sizes are for the smoke test only.
var workloads = []*workload{
	{
		name:    "wire_signal",
		op:      "one announce + withdraw cycle of a victim /32",
		latency: "signal-to-drop: UPDATE write to the return of the first egress dropping exactly the attack bytes",
		loop:    "closed loop, 2 BGP sessions over the host loopback (TCP, not a real link), 1 UPDATE outstanding each",
		setup: func(seed uint64, toy, traceable bool) (instance, error) {
			// 1024 standing mitigations fill about 59% of the L3-L4 TCAM
			// budget; signal latency grows with them.
			sh := wireShape{members: 64, standingMitigations: 1024, sessions: 2, window: 1}
			if toy {
				sh.members, sh.standingMitigations = 8, 16
			}
			return setupWire(sh, seed, traceable)
		},
	},
	{
		name:    "route_churn",
		op:      "one applied UPDATE (ten /24s announced or withdrawn; one in ten announces an RTBH /32)",
		latency: "UPDATE write to its RSFeed.AfterApply, queueing behind the window included",
		loop:    "closed loop, 2 BGP sessions over the host loopback (TCP, not a real link), 16 UPDATEs outstanding each",
		setup: func(seed uint64, toy, traceable bool) (instance, error) {
			sh := wireShape{members: 64, standingPaths: 10000, sessions: 2, window: 16, churn: true}
			if toy {
				sh.members, sh.standingPaths = 8, 200
			}
			return setupWire(sh, seed, traceable)
		},
	},
	{
		name:    "attack_mitigated",
		op:      "one offered flow (108 000 per tick)",
		latency: "tick period: interval between successive EgressTick returns, the longest a signal waits under load",
		loop:    "in-process engine.Run segments at the default depth, as fast as they go; no network",
		setup: func(seed uint64, toy bool, _ bool) (instance, error) {
			sh := attackShape{victims: 8, attackPeers: 6000, webPeers: 1500, portBps: 1e9,
				attackBps: 2e9, webBps: 2e8, mitigated: true, segTicks: 100}
			if toy {
				sh.attackPeers, sh.webPeers, sh.segTicks = 60, 15, 60
			}
			return setupAttack(sh, seed)
		},
	},
	{
		name:    "attack_unmitigated",
		op:      "one offered flow (28 800 per tick)",
		latency: "tick period: interval between successive EgressTick returns",
		loop:    "in-process engine.Run segments at the default depth, as fast as they go; no network",
		setup: func(seed uint64, toy bool, _ bool) (instance, error) {
			// Ports are oversubscribed: about 45% is delivered and streams
			// into the flow monitor, the rest is tail-dropped.
			sh := attackShape{victims: 64, attackPeers: 200, webPeers: 50, portBps: 1e9,
				attackBps: 2e9, webBps: 2e8, segTicks: 250}
			if toy {
				sh.victims, sh.attackPeers, sh.webPeers, sh.segTicks = 8, 20, 5, 60
			}
			return setupAttack(sh, seed)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// wireInstance is a wire workload's set-up.
type wireInstance struct {
	sh       wireShape
	x        *ixp.IXP
	stack    *wireStack
	standing int
}

func setupWire(sh wireShape, seed uint64, traceable bool) (instance, error) {
	x, members, err := buildWireIXP(sh, seed)
	if err != nil {
		return nil, err
	}
	w := &wireInstance{sh: sh, x: x, standing: x.RS.Table().Len()}
	w.stack, err = startWire(x, members[:sh.sessions], sh.window, traceable, seed)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *wireInstance) warm(_ int, d time.Duration) (string, error) {
	_, err := w.stack.run(d, w.sh.churn)
	return "", err
}

func (w *wireInstance) run(d time.Duration) (segment, error) { return w.stack.run(d, w.sh.churn) }
func (w *wireInstance) setRecorder(rec *recorder)            { w.stack.setRecorder(rec) }
func (w *wireInstance) finish() error                        { return w.stack.finish(w.standing) }
func (w *wireInstance) close()                               { w.stack.close() }

// wireChain records signal cycles on this instance's own sessions when
// its workload runs none.
func (w *wireInstance) wireChain(rec *recorder, d time.Duration) error {
	if !w.sh.churn {
		return nil
	}
	w.stack.setRecorder(rec)
	defer w.stack.setRecorder(nil)
	_, err := w.stack.run(d, false)
	return err
}

// engineProfile runs the engine over the sessions' victims and the
// traffic the event tick egresses.
func (w *wireInstance) engineProfile(rec *recorder) error {
	rig := &engineRig{x: w.x}
	for _, c := range w.stack.clients {
		rig.victims = append(rig.victims, c.m)
		rig.sources = append(rig.sources, []engine.Source{c.attack, c.web})
	}
	_, _, err := rig.profile(companionTicks, rec)
	return err
}

func (w *wireInstance) layers() (layerInputs, error) {
	in := layerInputs{x: w.x, standingPaths: w.standing, standingMitigations: w.sh.standingMitigations, rulesPerPort: 1 + w.sh.standingMitigations/(w.sh.members-w.sh.sessions)}
	c := w.stack.clients[0]
	in.member = c.m
	in.corpus = append(append(in.corpus, c.wire...), c.announce, c.withdraw)
	in.flows = w.stack.offers[c.m.Name]
	return in, nil
}

// companionTicks is the length of an engine run made only for its
// profile.
const companionTicks = 200

// attackInstance is a data-plane workload's set-up.
type attackInstance struct {
	sh   attackShape
	seed uint64
	rig  *engineRig
	rec  *recorder
	// last keeps the latest segment's series referenced, so the live
	// heap includes what one engine.Run retains.
	last []engine.VictimSeries
}

func setupAttack(sh attackShape, seed uint64) (instance, error) {
	rig, err := buildAttack(sh, seed)
	if err != nil {
		return nil, err
	}
	return &attackInstance{sh: sh, seed: seed, rig: rig}, nil
}

// warm is the determinism prefix: the first set-up of a run executes it
// at Depth 1, the others at the default depth, and their samples must
// be identical bit for bit.
func (a *attackInstance) warm(round int, _ time.Duration) (string, error) {
	depth := 0
	if round == 0 {
		depth = 1
	}
	_, series, err := a.rig.run(prefixTicks, depth, nil)
	return fingerprint(series), err
}

func (a *attackInstance) run(time.Duration) (sg segment, err error) {
	if a.rec != nil {
		a.last = nil // profile measures what one run's result retains
		sg, a.last, err = a.rig.profile(a.sh.segTicks, a.rec)
	} else {
		sg, a.last, err = a.rig.run(a.sh.segTicks, 0, nil)
	}
	return sg, err
}

func (a *attackInstance) setRecorder(rec *recorder) { a.rec = rec }
func (a *attackInstance) finish() error             { return nil }
func (a *attackInstance) close()                    {}

// wireChain brings the wire assembly up around this exchange and records
// the signal cycles of one session. The session belongs to an attack
// peer, so its victim /32 is not one the engine's schedule signals.
func (a *attackInstance) wireChain(rec *recorder, d time.Duration) error {
	stack, err := startWire(a.rig.x, a.rig.peers[:1], 1, true, a.seed)
	if err != nil {
		return err
	}
	defer stack.close()
	standing := a.rig.x.RS.Table().Len()
	if _, err := stack.run(d/warmShare, false); err != nil {
		return err
	}
	stack.setRecorder(rec)
	_, err = stack.run(d, false)
	stack.setRecorder(nil)
	if err != nil {
		return err
	}
	return stack.finish(standing)
}

func (a *attackInstance) engineProfile(*recorder) error { return nil }

func (a *attackInstance) layers() (layerInputs, error) {
	in := layerInputs{x: a.rig.x, standingPaths: max(a.rig.x.RS.Table().Len(), len(a.rig.victims)), rulesPerPort: 1, member: a.rig.victims[0]}
	corpus, err := churnCorpus(a.rig.x, a.rig.victims[0], 0)
	if err != nil {
		return in, err
	}
	in.corpus = corpus.wire
	for _, src := range a.rig.sources[0] {
		in.flows = src.(engine.OfferAppender).AppendOffers(in.flows, 0, 1)
	}
	return in, nil
}

// profile is run with the engine's stage profile on, bracketed by two
// forced collections so the heap the run's result retains is known.
func (r *engineRig) profile(ticks int, rec *recorder) (segment, []engine.VictimSeries, error) {
	h0 := heapLive()
	sg, series, err := r.run(ticks, 0, rec)
	rec.count("flowmon.retained_bytes", heapLive()-h0)
	rec.count("flowmon.victim_bins", float64(len(r.victims)*ticks))
	return sg, series, err
}

// victimTraffic builds one victim's sources: an NTP reflection attack
// from every peer and web traffic from the first webPeers of them.
func victimTraffic(m *member.Member, peers []traffic.Peer, webPeers int, attackBps, webBps float64, rng *stats.Rand) (*traffic.Attack, *traffic.WebService) {
	attack := traffic.NewAttack(traffic.VectorNTP, victimAddr(m), peers, attackBps, 0, 1<<30, rng)
	attack.RampTicks = 0
	return attack, traffic.NewWebService(victimAddr(m), peers[:webPeers], webBps, rng)
}

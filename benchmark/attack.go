package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sync/atomic"
	"time"

	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// attackShape sizes one data-plane workload.
type attackShape struct {
	victims     int
	attackPeers int // one NTP flow per peer and victim
	webPeers    int // five web flows per peer and victim
	portBps     float64
	attackBps   float64
	webBps      float64
	// mitigated signals every victim's drop rule at tick 0 and, every
	// tenth tick, has one victim withdraw and re-announce a tick later.
	mitigated bool
	// segTicks is the length of one timed engine.Run.
	segTicks int
}

// prefixTicks is the length of the run whose samples must be identical
// at Depth 1 and at the default depth.
const prefixTicks = 50

// engineRig runs engine segments over one exchange: the victims' ports
// and traffic sources, the signaling schedule, and the benchmark's own
// Control/DataPlane/Source wrappers, which see every call the engine
// makes into the layers below it.
type engineRig struct {
	x         *ixp.IXP
	victims   []*member.Member
	peers     []*member.Member // the members the attack arrives through
	sources   [][]engine.Source
	mitigated bool

	rec      *recorder
	traceSeq uint64

	// per segment, reset by run
	lastEgress int64
	periods    []float64
	flows      float64
	unbalanced int
	genNs      atomic.Int64
}

// ControlTick implements engine.Control around the exchange's.
func (r *engineRig) ControlTick(tick int, dt float64) float64 {
	t0 := nowNs()
	now := r.x.ControlTick(tick, dt)
	if r.rec != nil {
		r.traceSeq++
		r.rec.add(r.traceSeq, 0, "ixp", "control_tick", t0, nowNs())
	}
	return now
}

// EgressTick implements engine.DataPlane around the exchange's: it
// times the call, counts the flows offered, keeps the interval since
// the previous return (the tick period) and checks that every port's
// bytes are conserved.
func (r *engineRig) EgressTick(run fabric.Runner, offers fabric.TickOffers, dt float64, sink fabric.TickSink) (map[string]engine.PortReport, error) {
	t0 := nowNs()
	reports, err := r.x.EgressTick(run, offers, dt, sink)
	t1 := nowNs()
	if err != nil {
		return nil, err
	}
	n := 0
	for _, os := range offers {
		n += len(os)
	}
	r.flows += float64(n)
	if r.lastEgress != 0 {
		r.periods = append(r.periods, float64(t1-r.lastEgress))
		r.rec.add(r.traceSeq, 0, "engine", "tick", r.lastEgress, t1)
	}
	r.lastEgress = t1
	for _, rep := range reports {
		parts := rep.NulledBytes + rep.Result.OfferedBytes()
		if math.Abs(rep.OfferedBytes-parts) > 1e-9*rep.OfferedBytes {
			r.unbalanced++
		}
	}
	if r.rec != nil {
		r.rec.add(r.traceSeq, 0, "ixp", "egress_tick", t0, t1)
		r.rec.count("fabric.flows", float64(n))
	}
	r.genNs.Add(nowNs() - t1)
	return reports, nil
}

// timedSource wraps one traffic source for the traced run.
type timedSource struct {
	src engine.OfferAppender
	rig *engineRig
}

func (t timedSource) Offers(tick int, dt float64) []fabric.Offer {
	return t.AppendOffers(nil, tick, dt)
}

func (t timedSource) AppendOffers(dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	t0 := nowNs()
	n := len(dst)
	dst = t.src.AppendOffers(dst, tick, dt)
	t.rig.rec.add(uint64(tick)+1, 0, "traffic", "append", t0, nowNs())
	t.rig.rec.count("traffic.flows", float64(len(dst)-n))
	return dst
}

// victimAddr is the attacked service address of a victim member.
func victimAddr(m *member.Member) netip.Addr { return hostAddr(m, 200) }

// events is the signaling schedule of one segment: all rules at tick
// 0; every tenth tick one victim, round-robin, withdraws, and
// re-announces on the next tick. withdrawn[v] lists the ticks victim v
// spends without its rule.
func (r *engineRig) events(ticks int) (evs []engine.Event, withdrawn [][]int) {
	withdrawn = make([][]int, len(r.victims))
	if !r.mitigated {
		return nil, withdrawn
	}
	spec := []core.RuleSpec{core.DropUDPSrcPort(traffic.VectorNTP.SrcPort)}
	announce := func(m *member.Member) func() error {
		return func() error { return r.x.Announce(m.Name, netip.PrefixFrom(victimAddr(m), 32), nil, spec) }
	}
	for _, m := range r.victims {
		evs = append(evs, engine.Event{Tick: 0, Name: "announce " + m.Name, Do: announce(m)})
	}
	for t := 10; t+1 < ticks; t += 10 {
		v := (t/10 - 1) % len(r.victims)
		m := r.victims[v]
		withdrawn[v] = append(withdrawn[v], t)
		evs = append(evs,
			engine.Event{Tick: t, Name: "withdraw " + m.Name, Do: func() error {
				return r.x.Withdraw(m.Name, netip.PrefixFrom(victimAddr(m), 32))
			}},
			engine.Event{Tick: t + 1, Name: "re-announce " + m.Name, Do: announce(m)})
	}
	return evs, withdrawn
}

// run executes one engine.Run of the given length and checks it: bytes
// conserved at every port and tick, and the drop rule absent on exactly
// the ticks the schedule withdrew it.
func (r *engineRig) run(ticks, depth int, rec *recorder) (segment, []engine.VictimSeries, error) {
	r.rec = rec
	r.lastEgress, r.periods, r.flows, r.unbalanced = 0, make([]float64, 0, ticks), 0, 0
	r.genNs.Store(0)
	specs := make([]engine.VictimSpec, len(r.victims))
	for i, m := range r.victims {
		specs[i] = engine.VictimSpec{Port: m.Name}
	}
	sources := r.sources
	if rec != nil {
		sources = make([][]engine.Source, len(r.sources))
		for v, list := range r.sources {
			for _, src := range list {
				sources[v] = append(sources[v], timedSource{src.(engine.OfferAppender), r})
			}
		}
	}
	evs, withdrawn := r.events(ticks)
	eng := engine.New(engine.Config{
		Driver:       engine.NewSourcesDriver(specs, sources),
		Control:      r,
		DataPlane:    r,
		Events:       evs,
		Ticks:        ticks,
		Dt:           1,
		Depth:        depth,
		MemberFilter: r.x.MemberFilter(),
		Profile:      rec != nil,
	})
	t0 := time.Now()
	series, err := eng.Run()
	sg := segment{wall: time.Since(t0), ops: r.flows, latencies: r.periods, attempted: int(r.flows)}
	if err != nil {
		sg.failed = sg.attempted
		return sg, series, err
	}
	g0 := nowNs()
	var problems []error
	if r.unbalanced > 0 {
		problems = append(problems, fmt.Errorf("%d port-ticks did not conserve bytes", r.unbalanced))
	}
	for v, s := range series {
		gone := make(map[int]bool, len(withdrawn[v]))
		for _, t := range withdrawn[v] {
			gone[t] = true
		}
		for _, smp := range s.Samples {
			dropping := smp.RuleDroppedBps > 0
			if dropping == (gone[smp.Tick] || !r.mitigated) {
				problems = append(problems, fmt.Errorf("%s tick %d: rule dropping=%v, schedule says otherwise", s.Port, smp.Tick, dropping))
				break
			}
		}
		if len(s.Samples) != ticks {
			problems = append(problems, fmt.Errorf("%s: %d samples, want %d", s.Port, len(s.Samples), ticks))
		}
	}
	if len(problems) > 0 {
		sg.failed = sg.attempted
	}
	if rec != nil && len(series) > 0 && series[0].Profile != nil {
		p := series[0].Profile
		for _, st := range p.Stages {
			rec.count("engine."+st.Name+"_ns", float64(st.Ns))
		}
		rec.count("engine.spine_wait_ns", float64(p.SpineWaitNs))
		rec.count("engine.fold_wait_ns", float64(p.FoldWaitNs))
		rec.count("engine.ticks", float64(p.Ticks))
		rec.count("engine.wall_ns", float64(sg.wall))
	}
	sg.generatorNs = float64(r.genNs.Load() + nowNs() - g0)
	return sg, series, errors.Join(problems...)
}

// fingerprint hashes every sample of a run, bit for bit.
func fingerprint(series []engine.VictimSeries) string {
	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, s := range series {
		h.Write([]byte(s.Port))
		for _, smp := range s.Samples {
			put(float64(smp.Tick))
			put(smp.OfferedBps)
			put(smp.DeliveredBps)
			put(smp.NulledBps)
			put(smp.RuleDroppedBps)
			put(smp.ShaperDroppedBps)
			put(smp.CongestionDroppedBps)
			put(float64(smp.ActivePeers))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// buildAttack assembles the exchange and the per-victim sources of a
// data-plane workload.
func buildAttack(sh attackShape, seed uint64) (*engineRig, error) {
	x, members, err := buildIXP(sh.victims+sh.attackPeers, sh.portBps, seed)
	if err != nil {
		return nil, err
	}
	rig := &engineRig{x: x, victims: members[:sh.victims], peers: members[sh.victims:], mitigated: sh.mitigated}
	peers := ixp.PeersOf(members[sh.victims:])
	for v, m := range rig.victims {
		rng := stats.NewRand(seed*1000003 + uint64(v))
		attack, web := victimTraffic(m, peers, sh.webPeers, sh.attackBps, sh.webBps, rng)
		rig.sources = append(rig.sources, []engine.Source{attack, web})
	}
	return rig, nil
}

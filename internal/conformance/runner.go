package conformance

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/faults"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// The runner's fixed exchange identity, matching the controlled
// experiments (Sections 2.4, 5.3).
const (
	runnerASN              = 6695
	defaultPortCapacityBps = 1e10
)

// tickSec is every profile's tick length in seconds.
const tickSec = 1.0

var blackholeNextHop = netip.MustParseAddr("80.81.193.66")

// Result is one executed profile: the evaluated report plus the raw
// engine output, so tests can assert beyond the declared expectations
// (e.g. cross-channel series equality).
type Result struct {
	Report ProfileReport
	Series []engine.VictimSeries
	IXP    *ixp.IXP
}

// announcement is one BGP announcement the run made, remembered so a
// session flap's recovery (faults.KindSessionFlap) can replay the
// peer's announcements in their original order.
type announcement struct {
	member string
	prefix netip.Prefix
	comms  []bgp.Community
	specs  []core.RuleSpec
}

// mitEvent is one degradation-ladder transition observed on the
// controller's event stream, mapped back onto the engine tick clock.
type mitEvent struct {
	tick   int
	typ    mitctl.EventType
	target netip.Prefix
}

// runner holds one profile's compiled wiring.
type runner struct {
	p       *Profile
	x       *ixp.IXP
	members []*member.Member
	// targets[i] / hosts[i] are victim i's attacked address and its /32
	// host route.
	targets []netip.Addr
	hosts   []netip.Prefix
	rng     *stats.Rand
	// portalIDs[eventIndex] is the pre-defined portal rule for a
	// portal-channel mitigate event.
	portalIDs map[int]uint32

	// inj executes the profile's fault plan (nil: no faults section).
	inj *faults.Injector
	// announced is the replayable announcement state for flap recovery.
	// Only BGP-channel state is tracked; MRT-replayed records are
	// deliberately not restored (a real capture does not re-send).
	announced []announcement
	// mitEvents collects degraded/upgraded transitions. Appended on the
	// control spine only (controller callbacks), read after the run.
	mitEvents []mitEvent
}

// Run compiles the profile into an engine run over a fully wired IXP,
// executes it, and evaluates the expectations.
func Run(p *Profile) (*Result, error) {
	r, cfg, err := compile(p)
	if err != nil {
		return nil, err
	}
	series, err := engine.New(cfg).Run()
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", p.Name, err)
	}
	return &Result{Report: evaluate(p, series, r), Series: series, IXP: r.x}, nil
}

// Compile wires the profile's IXP, workload, timeline and faults into
// the engine configuration Run executes, without running it or
// evaluating any expectation.
func Compile(p *Profile) (*ixp.IXP, engine.Config, error) {
	r, cfg, err := compile(p)
	if err != nil {
		return nil, engine.Config{}, err
	}
	return r.x, cfg, nil
}

// compile is Compile keeping the runner, whose fault log and ladder
// transitions the evaluation reads.
func compile(p *Profile) (*runner, engine.Config, error) {
	if err := p.Validate(); err != nil {
		return nil, engine.Config{}, err
	}
	capacity := p.Topology.PortCapacityBps
	if capacity == 0 {
		capacity = defaultPortCapacityBps
	}
	members := member.MakePopulation(member.PopulationConfig{
		N:                p.Topology.Members,
		HonoringFraction: p.Topology.HonoringFraction,
		PortCapacityBps:  capacity,
		Seed:             p.Topology.Seed,
	})
	r := &runner{
		p: p, members: members,
		rng:       stats.NewRand(p.Topology.Seed + 1),
		portalIDs: make(map[int]uint32),
	}
	x, err := ixp.Build(ixp.Config{
		ASN:              runnerASN,
		BlackholeNextHop: blackholeNextHop,
		Members:          members,
		EnableStellar:    p.stellarOn(),
		TuneController:   r.tuneController,
	})
	if err != nil {
		return nil, engine.Config{}, err
	}
	r.x = x
	if x.Mitigations != nil {
		x.Mitigations.Subscribe(func(ev mitctl.Event) {
			if ev.Type != mitctl.EventDegraded && ev.Type != mitctl.EventUpgraded {
				return
			}
			// The controller processes tick T at clock (T+1)*tickSec, so
			// the transition's tick is one before the clock reading.
			tick := int(ev.Time/tickSec+0.5) - 1
			r.mitEvents = append(r.mitEvents, mitEvent{tick: tick, typ: ev.Type, target: ev.Mitigation.Target})
		})
	}
	if p.Faults != nil {
		if err := r.buildInjector(); err != nil {
			return nil, engine.Config{}, fmt.Errorf("conformance: %s: %w", p.Name, err)
		}
	}
	for _, v := range p.Victims {
		m := members[v.Member]
		target := m.Prefixes[0].Addr().Next()
		r.targets = append(r.targets, target)
		r.hosts = append(r.hosts, netip.PrefixFrom(target, 32))
		// The victim announces its covering prefix up front — the IRR
		// registration every later mitigation validates against.
		if err := r.announce(m.Name, m.Prefixes[0], nil, nil); err != nil {
			return nil, engine.Config{}, fmt.Errorf("conformance: %s: announce %s: %w", p.Name, m.Prefixes[0], err)
		}
	}

	driver, err := r.buildDriver()
	if err != nil {
		return nil, engine.Config{}, err
	}
	replay, err := r.replayEvents()
	if err != nil {
		return nil, engine.Config{}, err
	}
	events, err := r.compileEvents()
	if err != nil {
		return nil, engine.Config{}, err
	}
	// Same-tick events apply in list order: the profile's timeline, then
	// the replayed capture, then the injector's tick windows, which thus
	// fire last before each control tick.
	events = append(events, replay...)
	if r.inj != nil {
		events = append(events, r.inj.Events(p.Run.Ticks)...)
	}

	return r, engine.Config{
		Driver:       driver,
		Control:      x,
		DataPlane:    x,
		Events:       events,
		Ticks:        p.Run.Ticks,
		Dt:           tickSec,
		MemberFilter: x.MemberFilter(),
	}, nil
}

// tuneController compiles the profile's robustness knobs into the
// mitigation controller configuration (ixp.Config.TuneController).
func (r *runner) tuneController(mc *mitctl.Config) {
	t := r.p.Topology
	if rt := t.Retry; rt != nil {
		mc.Retry = mitctl.RetryPolicy{
			MaxAttempts: rt.MaxAttempts,
			BaseDelay:   rt.BaseDelaySec,
			MaxDelay:    rt.MaxDelaySec,
			Jitter:      rt.Jitter,
		}
	}
	mc.InstallDeadline = t.InstallDeadlineSec
	if d := t.Degrade; d != nil {
		mc.Degrade = mitctl.DegradePolicy{
			Enabled:         true,
			MarginMAC:       d.MarginMAC,
			MarginL34:       d.MarginL34,
			UpgradeCooldown: d.UpgradeCooldownSec,
		}
	}
	mc.Seed = t.Seed + 3
	if r.p.Faults != nil {
		// Late-bound: the injector is built after ixp.Build (its squeeze
		// compilation reads the router's hardware limits), so the hook
		// resolves r.inj at call time. Installs before that are unfaulted.
		mc.InstallHook = func(ch core.ConfigChange, attempt int, now float64) error {
			if r.inj == nil {
				return nil
			}
			return r.inj.InstallHook(ch, attempt, now)
		}
	}
}

// buildInjector compiles the profile's faults section into a
// faults.Injector wired to the IXP's levers.
func (r *runner) buildInjector() error {
	p := r.p
	seed := p.Faults.Seed
	if seed == 0 {
		seed = p.Topology.Seed + 2
	}
	plan := faults.Plan{Seed: seed}
	lim := r.x.Router.Snapshot().Limits
	for _, fs := range p.Faults.Injections {
		f := faults.Fault{
			Kind: fs.Kind, From: fs.From, To: fs.To, Prob: fs.Prob,
			Error: fs.Error, MaxFailures: fs.MaxFailures,
			ReserveMAC: fs.ReserveMAC, ReserveL34: fs.ReserveL34,
			DelayMsgs: fs.DelayMsgs,
		}
		if fs.Kind == faults.KindSessionFlap {
			f.Peer = r.members[fs.Member].Name
		}
		// Leave* expresses the squeeze relative to the budget: reserve
		// everything but that headroom.
		if fs.LeaveMAC != nil {
			f.ReserveMAC = max(0, lim.MACFiltersTotal-*fs.LeaveMAC)
		}
		if fs.LeaveL34 != nil {
			f.ReserveL34 = max(0, lim.L34CriteriaTotal-*fs.LeaveL34)
		}
		plan.Faults = append(plan.Faults, f)
	}
	hooks := faults.Hooks{
		SetReserved: r.x.Router.SetReserved,
		PeerDown:    r.x.PeerDown,
		PeerUp:      r.restorePeer,
	}
	if r.x.Mitigations != nil {
		hooks.SetStalled = r.x.Mitigations.SetQueueStalled
	}
	inj, err := faults.NewInjector(plan, hooks)
	if err != nil {
		return err
	}
	r.inj = inj
	return nil
}

// announce makes (or refreshes) a BGP announcement and remembers it, so
// a session flap's recovery can replay the peer's state.
func (r *runner) announce(member string, prefix netip.Prefix, comms []bgp.Community, specs []core.RuleSpec) error {
	if err := r.x.Announce(member, prefix, comms, specs); err != nil {
		return err
	}
	for i := range r.announced {
		a := &r.announced[i]
		if a.member == member && a.prefix == prefix {
			a.comms, a.specs = comms, specs
			return nil
		}
	}
	r.announced = append(r.announced, announcement{member: member, prefix: prefix, comms: comms, specs: specs})
	return nil
}

// withdraw retracts a BGP announcement and forgets it.
func (r *runner) withdraw(member string, prefix netip.Prefix) error {
	if err := r.x.Withdraw(member, prefix); err != nil {
		return err
	}
	for i := range r.announced {
		if r.announced[i].member == member && r.announced[i].prefix == prefix {
			r.announced = append(r.announced[:i], r.announced[i+1:]...)
			break
		}
	}
	return nil
}

// restorePeer is the injector's PeerUp hook: the flapped session comes
// back and the peer re-announces everything it had, in original order —
// BGP session recovery as the route server sees it.
func (r *runner) restorePeer(peer string) error {
	for _, a := range r.announced {
		if a.member != peer {
			continue
		}
		if err := r.x.Announce(a.member, a.prefix, a.comms, a.specs); err != nil {
			return err
		}
	}
	return nil
}

// buildDriver compiles the victims' source compositions into the
// engine's SourcesDriver. A carpet is one phase-shifted pulse train per
// victim: victim v of n carries its carpet attack during ticks
// [start+v·rot, start+(v+1)·rot) of every n·rot period, after its
// background sources.
func (r *runner) buildDriver() (engine.Driver, error) {
	p := r.p
	specs := make([]engine.VictimSpec, len(p.Victims))
	sources := make([][]engine.Source, len(p.Victims))
	for i, v := range p.Victims {
		specs[i] = engine.VictimSpec{Port: r.members[v.Member].Name}
		var carpet engine.Source
		if p.Carpet != nil && v.CarpetAttack != nil {
			// The attack draws from the rng before the background.
			src, err := r.buildSource(i, v.CarpetAttack)
			if err != nil {
				return nil, err
			}
			rot := max(p.Carpet.RotateTicks, 1)
			carpet = &engine.Pulsed{Src: src, OnTicks: rot, OffTicks: (len(p.Victims) - 1) * rot,
				StartTick: p.Carpet.StartTick + i*rot, EndTick: p.Carpet.EndTick}
		}
		for _, s := range slices.Concat(v.Sources, v.Background) {
			s := s
			src, err := r.buildSource(i, &s)
			if err != nil {
				return nil, err
			}
			sources[i] = append(sources[i], src)
		}
		if carpet != nil {
			sources[i] = append(sources[i], carpet)
		}
	}
	return engine.NewSourcesDriver(specs, sources), nil
}

// replayEvents compiles the profile's MRT schedule, if any, into engine
// events that apply the capture's records on the control spine.
func (r *runner) replayEvents() ([]engine.Event, error) {
	p := r.p
	if p.Replay == nil {
		return nil, nil
	}
	dump, err := r.buildMRT()
	if err != nil {
		return nil, err
	}
	var src bgppipe.RecordSource = bgppipe.NewMRTScanner(bytes.NewReader(dump))
	if r.inj != nil {
		// Replay with deterministic loss: the injector's wire faults
		// drop/duplicate/delay records by index before scheduling.
		src = r.inj.FilterSource(src)
	}
	return engine.ReplayEvents(src, engine.ReplayConfig{
		StartTick:   p.Replay.StartTick,
		TickSeconds: tickSec,
		Apply:       r.applyReplay,
	})
}

// buildSource compiles one source spec for victim v. Sources draw from
// the runner's single rng in declaration order, so a profile's workload
// is deterministic.
func (r *runner) buildSource(v int, s *SourceSpec) (engine.Source, error) {
	target := r.targets[v]
	switch s.Kind {
	case "attack":
		vec, err := traffic.VectorByName(s.Vector)
		if err != nil {
			return nil, err
		}
		a := traffic.NewAttack(vec, target, r.peersOf(s.Peers), s.RateBps, s.StartTick, s.EndTick, r.rng)
		if s.RampTicks != nil {
			a.RampTicks = *s.RampTicks
		}
		return a, nil
	case "web":
		return traffic.NewWebService(target, r.peersOf(s.Peers), s.RateBps, r.rng), nil
	case "pulse":
		inner, err := r.buildSource(v, s.Src)
		if err != nil {
			return nil, err
		}
		return &engine.Pulsed{Src: inner, OnTicks: s.OnTicks, OffTicks: s.OffTicks,
			StartTick: s.StartTick, EndTick: s.EndTick}, nil
	case "trace":
		// The profile lists one rate per segment; traffic.NewTrace wants a
		// per-tick series, so expand each segment rate across its ticks.
		seg := s.SegmentTicks
		if seg < 1 {
			seg = 1
		}
		rates := make([]float64, 0, len(s.RatesBps)*seg)
		for _, rate := range s.RatesBps {
			for k := 0; k < seg; k++ {
				rates = append(rates, rate)
			}
		}
		return traffic.NewTrace(traffic.RTBHPortProfile(), target, r.peersOf(s.Peers), rates, seg, r.rng), nil
	}
	return nil, fmt.Errorf("conformance: unknown source kind %q", s.Kind)
}

func (r *runner) peersOf(pr PeerRange) []traffic.Peer {
	return ixp.PeersOf(r.members[pr.From : pr.From+pr.Count])
}

// compileEvents turns the profile's timeline into engine events,
// dispatching mitigate/withdraw through the channel under test.
func (r *runner) compileEvents() ([]engine.Event, error) {
	p := r.p
	var out []engine.Event
	for i, ev := range p.Events {
		ev := ev
		var do func() error
		var name string
		switch ev.Action {
		case "mitigate":
			fn, err := r.mitigateFunc(i, ev)
			if err != nil {
				return nil, err
			}
			do = fn
			name = fmt.Sprintf("mitigate[%s] victim %d", channelName(p), ev.Victim)
		case "withdraw":
			fn, err := r.withdrawFunc(i, ev)
			if err != nil {
				return nil, err
			}
			do = fn
			name = fmt.Sprintf("withdraw[%s] victim %d", channelName(p), ev.Victim)
		case "rtbh":
			m, host := r.victimOf(ev), r.hosts[ev.Victim]
			do = func() error {
				return r.announce(m.Name, host, []bgp.Community{bgp.CommunityBlackhole}, nil)
			}
			name = fmt.Sprintf("rtbh victim %d", ev.Victim)
		case "rtbh_withdraw":
			m, host := r.victimOf(ev), r.hosts[ev.Victim]
			do = func() error { return r.withdraw(m.Name, host) }
			name = fmt.Sprintf("rtbh withdraw victim %d", ev.Victim)
		case "announce_prefix":
			m := r.members[ev.Member]
			do = func() error { return r.announce(m.Name, m.Prefixes[0], nil, nil) }
			name = fmt.Sprintf("announce %s", m.Name)
		case "withdraw_prefix":
			m := r.members[ev.Member]
			do = func() error { return r.withdraw(m.Name, m.Prefixes[0]) }
			name = fmt.Sprintf("withdraw %s", m.Name)
		default:
			return nil, fmt.Errorf("conformance: unknown action %q", ev.Action)
		}
		out = append(out, engine.Event{Tick: ev.Tick, Name: name, Do: do})
	}
	return out, nil
}

func (r *runner) victimOf(ev EventSpec) *member.Member {
	return r.members[r.p.Victims[ev.Victim].Member]
}

// channelName resolves the profile's channel with its default.
func channelName(p *Profile) string {
	if p.Channel == "" {
		return "api"
	}
	return p.Channel
}

// specFor builds the channel-independent mitigation spec an event
// declares — the identity the API channel requests directly and the
// withdraw path derives IDs from.
func (r *runner) specFor(ev EventSpec) mitctl.Spec {
	m := r.victimOf(ev)
	spec := mitctl.Spec{
		Requester: m.Name,
		Target:    r.hosts[ev.Victim],
		Match:     matchFor(ev.Match),
		TTL:       ev.TTLSec,
	}
	if ev.Effect == "shape" {
		spec.Action = fabric.ActionShape
		spec.ShapeRateBps = ev.RateBps
	} else {
		spec.Action = fabric.ActionDrop
	}
	if ev.Scope == ScopePerPeer {
		spec.Scope = mitctl.ScopePerPeer
		for _, pm := range r.members[ev.Peers.From : ev.Peers.From+ev.Peers.Count] {
			spec.Peers = append(spec.Peers, pm.Name)
		}
	}
	return spec
}

// matchFor compiles the declarative match into a fabric pattern.
func matchFor(ms MatchSpec) fabric.Match {
	m := fabric.MatchAll()
	switch ms.Proto {
	case "udp":
		m.Proto = netpkt.ProtoUDP
	case "tcp":
		m.Proto = netpkt.ProtoTCP
	}
	if ms.SrcPort != nil {
		m.SrcPort = int32(*ms.SrcPort)
	}
	if ms.DstPort != nil {
		m.DstPort = int32(*ms.DstPort)
	}
	return m
}

// ruleSpecFor compiles the event into the Advanced Blackholing
// extended-community signal (the "IXP:2:123" scheme). Validation
// already established expressibility.
func ruleSpecFor(ev EventSpec) core.RuleSpec {
	rs := core.RuleSpec{Action: fabric.ActionDrop}
	if ev.Effect == "shape" {
		rs.Action = fabric.ActionShape
		rs.ShapeRateBps = ev.RateBps
	}
	udp := ev.Match.Proto == "udp"
	if udp {
		rs.Proto = netpkt.ProtoUDP
	} else {
		rs.Proto = netpkt.ProtoTCP
	}
	switch {
	case ev.Match.SrcPort != nil:
		rs.Port = uint16(*ev.Match.SrcPort)
		if udp {
			rs.Selector = core.SelUDPSrcPort
		} else {
			rs.Selector = core.SelTCPSrcPort
		}
	case ev.Match.DstPort != nil:
		rs.Port = uint16(*ev.Match.DstPort)
		if udp {
			rs.Selector = core.SelUDPDstPort
		} else {
			rs.Selector = core.SelTCPDstPort
		}
	default:
		rs.Selector = core.SelProto
	}
	return rs
}

// flowSpecFor compiles the event into an RFC 5575 flow specification
// plus its traffic-rate action attribute (rate 0 = drop). Components
// are emitted in type order as the wire format requires.
func (r *runner) flowSpecFor(ev EventSpec) (*bgp.FlowSpec, *bgp.PathAttrs) {
	comps := []bgp.FlowSpecComponent{bgp.DstPrefix(r.hosts[ev.Victim])}
	switch ev.Match.Proto {
	case "udp":
		comps = append(comps, bgp.Numeric(bgp.FSIPProto, bgp.Eq(uint64(netpkt.ProtoUDP))))
	case "tcp":
		comps = append(comps, bgp.Numeric(bgp.FSIPProto, bgp.Eq(uint64(netpkt.ProtoTCP))))
	}
	if ev.Match.DstPort != nil {
		comps = append(comps, bgp.Numeric(bgp.FSDstPort, bgp.Eq(uint64(*ev.Match.DstPort))))
	}
	if ev.Match.SrcPort != nil {
		comps = append(comps, bgp.Numeric(bgp.FSSrcPort, bgp.Eq(uint64(*ev.Match.SrcPort))))
	}
	var bytesPerSec float32
	if ev.Effect == "shape" {
		bytesPerSec = float32(ev.RateBps / 8)
	}
	attrs := &bgp.PathAttrs{
		ExtCommunities: []bgp.ExtCommunity{bgp.TrafficRate(runnerASN, bytesPerSec)},
	}
	return &bgp.FlowSpec{Components: comps}, attrs
}

// mitigateFunc dispatches a mitigate event onto the profile's channel.
// Every path lands on the same controller with the same content-derived
// identity — the cross-channel equivalence the matrix pins.
func (r *runner) mitigateFunc(idx int, ev EventSpec) (func() error, error) {
	m := r.victimOf(ev)
	host := r.hosts[ev.Victim]
	switch channelName(r.p) {
	case "api":
		spec := r.specFor(ev)
		return func() error {
			_, err := r.x.RequestMitigation(spec)
			return err
		}, nil
	case "community":
		rs := ruleSpecFor(ev)
		return func() error {
			return r.announce(m.Name, host, nil, []core.RuleSpec{rs})
		}, nil
	case "flowspec":
		fs, attrs := r.flowSpecFor(ev)
		specs, err := mitctl.SpecsFromFlowSpec(m.Name, fs, attrs, ev.TTLSec)
		if err != nil {
			return nil, fmt.Errorf("conformance: event %d: %w", idx, err)
		}
		return func() error {
			for _, spec := range specs {
				if _, err := r.x.Mitigations.Request(spec, r.x.Clock()); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case "portal":
		// The rule is predefined in the customer portal (out of band,
		// before the run); the event references it by ID.
		spec := r.specFor(ev)
		id := r.x.Mitigations.Portal().Define(m.Name, spec.Match, spec.Action, spec.ShapeRateBps)
		r.portalIDs[idx] = id
		return func() error {
			_, err := r.x.Mitigations.RequestFromPortal(m.Name, id, host, ev.TTLSec, r.x.Clock())
			return err
		}, nil
	}
	return nil, fmt.Errorf("conformance: channel %q cannot mitigate", r.p.Channel)
}

// withdrawFunc retracts the mitigation an identical mitigate event
// installed, resolving the content-derived ID per channel.
func (r *runner) withdrawFunc(idx int, ev EventSpec) (func() error, error) {
	m := r.victimOf(ev)
	host := r.hosts[ev.Victim]
	switch channelName(r.p) {
	case "api", "portal":
		// Portal specs normalize to the same identity as API specs for
		// the same match/action (SpecFromPortalRule clears the
		// template's DstIP and the target wins).
		spec := r.specFor(ev)
		id := mitctl.DeriveID(spec)
		return func() error { return r.x.WithdrawMitigation(id, m.Name) }, nil
	case "community":
		// Withdrawing the signaling announcement is the community
		// channel's retraction: the RIB diff withdraws its specs.
		return func() error { return r.withdraw(m.Name, host) }, nil
	case "flowspec":
		fs, attrs := r.flowSpecFor(ev)
		specs, err := mitctl.SpecsFromFlowSpec(m.Name, fs, attrs, ev.TTLSec)
		if err != nil {
			return nil, fmt.Errorf("conformance: event %d: %w", idx, err)
		}
		return func() error {
			for _, spec := range specs {
				if err := r.x.WithdrawMitigation(mitctl.DeriveID(spec), m.Name); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("conformance: channel %q cannot withdraw", r.p.Channel)
}

// buildMRT synthesizes the profile's replay schedule as a wire-format
// MRT dump (BGP4MP message records), which ReplayEvents then resamples
// onto the tick clock — the control plane driven from capture bytes,
// not from in-process calls.
func (r *runner) buildMRT() ([]byte, error) {
	base := time.Unix(1700000000, 0).UTC()
	localIP := netip.MustParseAddr("80.81.192.1")
	var dst []byte
	for i, rec := range r.p.Replay.Records {
		m := r.members[rec.Member]
		prefix := m.Prefixes[0]
		if rec.TargetOf != nil {
			prefix = r.hosts[*rec.TargetOf]
		}
		u := &bgp.Update{}
		if rec.Withdraw {
			u.Withdrawn = []bgp.PathPrefix{{Prefix: prefix}}
		} else {
			u.NLRI = []bgp.PathPrefix{{Prefix: prefix}}
			u.Attrs = bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{m.ASN}}},
				NextHop: m.BGPID,
			}
			if rec.Blackhole {
				u.Attrs.Communities = []bgp.Community{bgp.CommunityBlackhole}
			}
		}
		t := base.Add(time.Duration(rec.AtSec * float64(time.Second)))
		var err error
		dst, err = bgppipe.AppendMRTMessage(dst, t, m.ASN, runnerASN, m.BGPID, localIP, u, nil)
		if err != nil {
			return nil, fmt.Errorf("conformance: replay record %d: %w", i, err)
		}
	}
	return dst, nil
}

// applyReplay consumes one replayed capture record on the control
// spine. The MRT scanner names peers "AS<asn>", which is exactly the
// population's member naming, so the record maps straight back onto its
// member; records from unknown peers are ignored (a real capture
// carries sessions the exchange does not model).
func (r *runner) applyReplay(rec bgppipe.Record) error {
	u, ok := rec.Msg.(*bgp.Update)
	if !ok {
		return nil
	}
	if _, err := r.x.Member(rec.Peer); err != nil {
		return nil
	}
	return r.x.HandleWireUpdate(rec.Peer, u)
}

// RunProfiles executes the given profiles in order.
func RunProfiles(profiles []*Profile) (Report, error) {
	var rep Report
	for _, p := range profiles {
		res, err := Run(p)
		if err != nil {
			return Report{}, err
		}
		rep.add(res.Report)
	}
	rep.Pass = rep.Failed == 0
	return rep, nil
}

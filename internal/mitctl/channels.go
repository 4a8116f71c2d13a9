package mitctl

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/mitigation"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
)

// This file holds the three signaling-channel adapters. Each is a thin
// compiler from its wire format into Spec; the Controller neither knows
// nor cares which channel a request arrived on, which is what makes the
// channels interchangeable (the cross-channel equivalence property).

// SpecFromSignal compiles one decoded Advanced Blackholing extended
// community (the "IXP:2:123" scheme of Section 5.3) into a mitigation
// spec for the announced target prefix. SelCustom signals resolve their
// match template through the portal — the member's own rules only, the
// portal being the authorization boundary.
func SpecFromSignal(requester string, target netip.Prefix, rs core.RuleSpec, portal *core.Portal) (Spec, error) {
	spec := Spec{
		Requester: requester,
		Target:    target,
	}
	if rs.Selector == core.SelCustom {
		if portal == nil {
			return Spec{}, core.ErrNoSuchRule
		}
		custom, err := portal.Lookup(requester, rs.CustomID)
		if err != nil {
			return Spec{}, err
		}
		spec.Match = custom.MatchTemplate
		spec.Match.DstIP = netip.Prefix{} // the announced prefix wins
		spec.Action = custom.Action
		spec.ShapeRateBps = custom.ShapeRateBps
		return spec, nil
	}
	spec.Match = rs.Match(fabric.MatchAll())
	spec.Action = rs.Action
	spec.ShapeRateBps = rs.ShapeRateBps
	return spec, nil
}

// SpecsFromFlowSpec compiles an RFC 5575 flow specification plus its
// traffic-filtering action (traffic-rate extended community, §7) into
// mitigation specs: one per exact-match pattern the NLRI expands to
// (multi-value port/protocol sets expand via
// mitigation.FlowSpecToMatches). The destination prefix component names
// the mitigation target and is required.
func SpecsFromFlowSpec(requester string, fs *bgp.FlowSpec, attrs *bgp.PathAttrs, ttl float64) ([]Spec, error) {
	action, rateBps, ok := mitigation.FlowSpecAction(attrs)
	if !ok {
		return nil, fmt.Errorf("mitctl: flowspec carries no traffic-filtering action")
	}
	dst := fs.Component(bgp.FSDstPrefix)
	if dst == nil || !dst.Prefix.IsValid() {
		return nil, fmt.Errorf("mitctl: flowspec has no destination prefix to mitigate")
	}
	matches, err := mitigation.FlowSpecToMatches(fs)
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, len(matches))
	for i, m := range matches {
		specs[i] = Spec{
			Requester:    requester,
			Target:       dst.Prefix,
			Match:        m,
			Action:       action,
			ShapeRateBps: rateBps,
			TTL:          ttl,
		}
	}
	return specs, nil
}

// SpecFromPortalRule compiles a customer-portal rule into a mitigation
// spec for the given target prefix.
func SpecFromPortalRule(r core.CustomRule, target netip.Prefix, ttl float64) Spec {
	m := r.MatchTemplate
	m.DstIP = netip.Prefix{} // the requested target wins
	return Spec{
		Requester:    r.Member,
		Target:       target,
		Match:        m,
		Action:       r.Action,
		ShapeRateBps: r.ShapeRateBps,
		TTL:          ttl,
	}
}

// CommunityChannel is the BGP signaling adapter: it consumes the route
// server's southbound feed and compiles the Advanced Blackholing signals
// of every path an event names into mitigation requests and
// withdrawals. It keeps no RIB — only, per signaling path, the specs
// that path currently desires — so an event costs time proportional to
// its own prefixes, and a path with no signal before and after costs
// one map miss. A re-announcement with the same signals refreshes
// (idempotent); changed signals withdraw the old specs and request the
// new ones; a withdrawn path (or session loss) withdraws everything it
// requested.
type CommunityChannel struct {
	ctl *Controller

	mu      sync.Mutex
	desired map[rib.PathKey][]desiredSpec
	// refs counts, per mitigation ID, the paths currently desiring it.
	// Content-derived IDs mean distinct paths (ADD-PATH duplicates of
	// the same announcement) can request the same mitigation; it must
	// only be withdrawn when the LAST such path goes away.
	refs map[string]int
}

type desiredSpec struct {
	id   string
	spec Spec
}

func hasID(ds []desiredSpec, id string) bool {
	for _, d := range ds {
		if d.id == id {
			return true
		}
	}
	return false
}

// comparePrefix orders prefixes the way package rib sorts paths.
func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

func sortedUnique(ps []netip.Prefix) []netip.Prefix {
	slices.SortFunc(ps, comparePrefix)
	return slices.Compact(ps)
}

// NewCommunityChannel attaches a community adapter to a controller.
func NewCommunityChannel(ctl *Controller) *CommunityChannel {
	return &CommunityChannel{
		ctl:     ctl,
		desired: make(map[rib.PathKey][]desiredSpec),
		refs:    make(map[string]int),
	}
}

// SignalingPaths returns the number of paths the channel tracks: those
// whose latest announcement compiled to at least one mitigation spec.
func (ch *CommunityChannel) SignalingPaths() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(ch.desired)
}

// HandleEvent folds one route-server event into the channel: every
// (prefix, peer, path-id) key the event withdraws or announces is
// reconciled against the specs that key desired so far.
//
// Keys reconcile in a fixed order — withdrawn paths, then paths that
// start signaling, then paths already signaling, each sorted by prefix —
// the order of a RIB snapshot diff (removed, added, changed), except
// that a path announced earlier with nothing to desire counts as
// starting: the channel does not remember it.
func (ch *CommunityChannel) HandleEvent(ev routeserver.ControllerEvent, now float64) {
	signals := core.SignalsFrom(&ev.Attrs)
	key := rib.PathKey{Peer: ev.Peer, PathID: ev.PathID}

	ch.mu.Lock()
	var removed, added, changed []netip.Prefix
	for _, prefix := range ev.Announced {
		key.Prefix = prefix
		if _, ok := ch.desired[key]; ok {
			changed = append(changed, prefix)
		} else if len(signals) > 0 {
			added = append(added, prefix)
		}
	}
	added, changed = sortedUnique(added), sortedUnique(changed)
	for _, prefix := range ev.Withdrawn {
		key.Prefix = prefix
		if _, ok := ch.desired[key]; !ok {
			continue
		}
		// Withdrawn and re-announced in one event: the announcement wins.
		if _, again := slices.BinarySearchFunc(changed, prefix, comparePrefix); !again {
			removed = append(removed, prefix)
		}
	}
	removed = sortedUnique(removed)
	if len(removed)+len(added)+len(changed) == 0 {
		ch.mu.Unlock()
		return
	}

	// Reconcile each touched path's desired specs, collecting the
	// controller calls to run outside the channel lock (controller
	// events fire subscribers synchronously).
	type action struct {
		withdraw bool
		desiredSpec
	}
	var actions []action
	reconcile := func(prefix netip.Prefix, want []desiredSpec) {
		key.Prefix = prefix
		have := ch.desired[key]
		// Deterministic order: withdrawals of stale specs first, then
		// requests, each sorted by ID (desired lists are stored sorted) —
		// replacements free hardware budget before consuming it. A stale
		// spec only withdraws when this was the last path desiring its
		// mitigation.
		for _, d := range have {
			if hasID(want, d.id) {
				continue
			}
			if ch.refs[d.id]--; ch.refs[d.id] <= 0 {
				delete(ch.refs, d.id)
				actions = append(actions, action{true, d})
			}
		}
		// Every wanted spec is requested, including ones this path already
		// asked for: a re-announcement is BGP's keepalive for the request,
		// and Request is idempotent — a live identical spec only re-arms
		// its TTL (no churn), while one that expired meanwhile starts a
		// fresh lifecycle.
		slices.SortFunc(want, func(a, b desiredSpec) int { return strings.Compare(a.id, b.id) })
		for _, d := range want {
			if !hasID(have, d.id) {
				ch.refs[d.id]++
			}
			actions = append(actions, action{false, d})
		}
		if len(want) == 0 {
			delete(ch.desired, key)
		} else {
			ch.desired[key] = want
		}
	}
	type compileErr struct {
		target netip.Prefix
		err    error
	}
	var compileErrs []compileErr
	specsFor := func(prefix netip.Prefix) []desiredSpec {
		var out []desiredSpec
		for _, rs := range signals {
			spec, err := SpecFromSignal(ev.Peer, prefix, rs, ch.ctl.Portal())
			if err != nil {
				compileErrs = append(compileErrs, compileErr{prefix, err})
				continue
			}
			// spec.TTL stays 0: BGP never re-announces an unchanged
			// route, so a TTL would expire a mitigation whose route is
			// still in the RIB. The route's withdrawal, or its session's
			// end, lifts it.
			// The derived ID rides in the spec, so Request does not
			// derive it again.
			spec.ID = DeriveID(spec)
			id := spec.ID
			if hasID(out, id) {
				continue // duplicate signal in one announcement
			}
			out = append(out, desiredSpec{id: id, spec: spec})
		}
		return out
	}
	for _, prefix := range removed {
		reconcile(prefix, nil)
	}
	for _, prefix := range append(added, changed...) {
		reconcile(prefix, specsFor(prefix))
	}
	ch.mu.Unlock()

	for _, e := range compileErrs {
		ch.ctl.noteError(ev.Peer, e.target, e.err)
	}
	for _, a := range actions {
		if a.withdraw {
			// Ignore not-owner/unknown errors: the mitigation may have
			// been withdrawn directly through the API already.
			_ = ch.ctl.Withdraw(a.id, a.spec.Requester, now)
			continue
		}
		// Validation rejections are recorded in the store and
		// on the event stream by the controller itself.
		_, _ = ch.ctl.Request(a.spec, now)
	}
}

package mitctl

import (
	"cmp"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/netpkt"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
)

// oracleChannel is the community channel as it was before it became
// incremental, kept as the reference the differential test compares
// against: a private RIB of every announced path, and one full
// snapshot diff per event.
type oracleChannel struct {
	ctl     *Controller
	rib     *rib.Table
	prev    rib.Snapshot
	desired map[rib.PathKey][]desiredSpec
	refs    map[string]int
}

// desiredSpec is one mitigation a path desires, in the oracle: its ID
// and the whole spec that requested it.
type desiredSpec struct {
	id   string
	spec Spec
}

// snapshotDiff returns new minus old: the paths only old holds, the
// paths only new holds, and the paths both hold with a different Seq
// (re-announced), each sorted by prefix, peer and path ID.
func snapshotDiff(old, new rib.Snapshot) (removed, added, changed []*rib.Path) {
	for key, np := range new {
		if op, ok := old[key]; !ok {
			added = append(added, np)
		} else if op.Seq != np.Seq {
			changed = append(changed, np)
		}
	}
	for key, op := range old {
		if _, ok := new[key]; !ok {
			removed = append(removed, op)
		}
	}
	for _, ps := range [][]*rib.Path{removed, added, changed} {
		slices.SortFunc(ps, func(a, b *rib.Path) int {
			return cmp.Or(comparePrefix(a.Key.Prefix, b.Key.Prefix),
				strings.Compare(a.Key.Peer, b.Key.Peer), cmp.Compare(a.Key.PathID, b.Key.PathID))
		})
	}
	return removed, added, changed
}

func newOracleChannel(ctl *Controller) *oracleChannel {
	return &oracleChannel{
		ctl:     ctl,
		rib:     rib.New(),
		desired: make(map[rib.PathKey][]desiredSpec),
		refs:    make(map[string]int),
	}
}

func (ch *oracleChannel) HandleEvent(ev routeserver.ControllerEvent, now float64) {
	for _, prefix := range ev.Withdrawn {
		key := rib.PathKey{Prefix: prefix, Peer: ev.Peer, PathID: ev.PathID}
		if !ch.rib.Remove(key) && ev.PathID != 0 {
			// An ADD-PATH withdraw may name its path by identifier
			// alone (RFC 7911 §3).
			for _, p := range ch.rib.Lookup(prefix) {
				if p.Key.PathID == ev.PathID {
					ch.rib.Remove(p.Key)
					break
				}
			}
		}
	}
	for _, prefix := range ev.Announced {
		ch.rib.Add(rib.PathKey{Prefix: prefix, Peer: ev.Peer, PathID: ev.PathID}, ev.PeerAS, ev.Attrs)
	}
	next := ch.rib.Snapshot()
	removed, added, changed := snapshotDiff(ch.prev, next)
	ch.prev = next
	if len(removed)+len(added)+len(changed) == 0 {
		return
	}

	type action struct {
		withdraw  bool
		id        string
		requester string
		spec      Spec
	}
	var actions []action
	reconcile := func(key rib.PathKey, want []desiredSpec) {
		have := ch.desired[key]
		wantByID := make(map[string]bool, len(want))
		for _, d := range want {
			wantByID[d.id] = true
		}
		haveByID := make(map[string]bool, len(have))
		for _, d := range have {
			haveByID[d.id] = true
		}
		var stale []desiredSpec
		for _, d := range have {
			if !wantByID[d.id] {
				stale = append(stale, d)
			}
		}
		sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
		for _, d := range stale {
			if ch.refs[d.id]--; ch.refs[d.id] <= 0 {
				delete(ch.refs, d.id)
				actions = append(actions, action{withdraw: true, id: d.id, requester: d.spec.Requester})
			}
		}
		fresh := append([]desiredSpec(nil), want...)
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].id < fresh[j].id })
		for _, d := range fresh {
			if !haveByID[d.id] {
				ch.refs[d.id]++
			}
			actions = append(actions, action{id: d.id, requester: d.spec.Requester, spec: d.spec})
		}
		if len(want) == 0 {
			delete(ch.desired, key)
		} else {
			ch.desired[key] = want
		}
	}
	type compileErr struct {
		member string
		target netip.Prefix
		err    error
	}
	var compileErrs []compileErr
	specsFor := func(p *rib.Path) []desiredSpec {
		var out []desiredSpec
		seen := make(map[string]bool)
		for _, rs := range core.SignalsFrom(&p.Attrs) {
			spec, err := SpecFromSignal(p.Key.Peer, p.Key.Prefix, rs, ch.ctl.Portal())
			if err != nil {
				compileErrs = append(compileErrs, compileErr{p.Key.Peer, p.Key.Prefix, err})
				continue
			}
			id := DeriveID(spec)
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, desiredSpec{id: id, spec: spec})
		}
		return out
	}
	for _, p := range removed {
		reconcile(p.Key, nil)
	}
	for _, p := range added {
		reconcile(p.Key, specsFor(p))
	}
	for _, p := range changed {
		reconcile(p.Key, specsFor(p))
	}

	for _, e := range compileErrs {
		ch.ctl.noteError(e.member, e.target, e.err)
	}
	for _, a := range actions {
		if a.withdraw {
			_ = ch.ctl.Withdraw(a.id, a.requester, now)
			continue
		}
		_, _ = ch.ctl.Request(a.spec, now)
	}
}

// plain reports whether the oracle's RIB holds key with no desired
// spec: the one state the incremental channel does not remember.
func (ch *oracleChannel) plain(key rib.PathKey) bool {
	_, tracked := ch.desired[key]
	_, inRIB := ch.prev[key]
	return inRIB && !tracked
}

// checkRefs asserts the channel's refcount invariant: refs[id] is the
// number of desired paths carrying id, and no entry is <= 0.
func checkRefs(t *testing.T, ch *CommunityChannel) {
	t.Helper()
	ch.mu.Lock()
	defer ch.mu.Unlock()
	count := make(map[string]int)
	for key, ds := range ch.desired {
		if len(ds) == 0 {
			t.Fatalf("desired[%v] is empty", key)
		}
		for _, id := range ds {
			count[id]++
		}
	}
	for id, n := range ch.refs {
		if n <= 0 {
			t.Fatalf("refs[%s] = %d", id, n)
		}
	}
	if !reflect.DeepEqual(count, ch.refs) {
		t.Fatalf("refs diverge from desired:\n refs    %v\n desired %v", ch.refs, count)
	}
}

// diffSide is one controller under the differential test, with its
// recorded event stream.
type diffSide struct {
	h      *harness
	ctl    *Controller
	events []Event
}

// diffCustomID is the portal rule newDiffSide defines for member 0 (a
// fresh portal numbers from 1).
const diffCustomID = 1

func newDiffSide(t *testing.T) *diffSide {
	// A paced queue, and five QoS-policy slots per port, so the order of
	// requests inside one event decides what installs first and what the
	// hardware refuses.
	limits := hw.DefaultEdgeRouterLimits(3, hw.RTBHUnitN)
	limits.QoSPoliciesPerPort = 5
	s := &diffSide{h: newHarness(t, 3, &limits)}
	cfg := s.h.config()
	cfg.QueueRate = 3
	cfg.QueueBurst = 4
	s.ctl = New(cfg)
	tmpl := fabric.MatchAll()
	tmpl.Proto = netpkt.ProtoTCP
	tmpl.DstPort = 80
	if id := s.ctl.Portal().Define(memberName(0), tmpl, fabric.ActionShape, 50e6); id != diffCustomID {
		t.Fatalf("portal rule id %d, want %d", id, diffCustomID)
	}
	s.ctl.Subscribe(func(ev Event) { s.events = append(s.events, ev) })
	return s
}

func (s *diffSide) rules(t *testing.T) []string {
	var out []string
	for i := 0; i < 3; i++ {
		out = append(out, installedState(t, s.h, memberName(i))...)
	}
	return out
}

// TestCommunityChannelMatchesSnapshotDiff drives the incremental
// channel and the snapshot-diff oracle with the same seeded random
// event streams and requires identical controller behaviour: the full
// lifecycle event stream, the final store snapshot, the error count and
// every port's installed rules. The hardware must refuse some installs
// along the way.
func TestCommunityChannelMatchesSnapshotDiff(t *testing.T) {
	const streams, eventsPerStream = 200, 200
	refused := 0 // mitigations the hardware rejected, across all streams

	type session struct {
		member int
		pathID uint32
	}
	// Member 0 speaks on two path IDs (ADD-PATH duplicates).
	sessions := []session{{0, 1}, {0, 2}, {1, 3}, {2, 4}}
	pool := func(member int) []netip.Prefix {
		ps := []netip.Prefix{
			netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(member), 0, 0}), 24),
			// Outside the member's registered space: validation rejects.
			netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 9, 0, 1}), 32),
		}
		for host := 10; host < 15; host++ {
			ps = append(ps, netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(member), 0, byte(host)}), 32))
		}
		return ps
	}
	ntp, udp := core.DropUDPSrcPort(123), dropUDP
	signalSets := [][]core.RuleSpec{
		nil, // plain announcement
		{ntp},
		{shapeNTP},
		{udp},
		{ntp, udp},
		{ntp, ntp}, // duplicate signal
		{core.RuleSpec{Selector: core.SelCustom, CustomID: diffCustomID}}, // resolves for member 0 only
		{core.RuleSpec{Selector: core.SelCustom, CustomID: 42}},           // never defined
		{core.RuleSpec{Selector: core.SelCustom, CustomID: 42}, ntp},      // one fails, one compiles
		{core.DropUDPSrcPort(53), ntp},                                    // unsorted IDs
	}

	for seed := int64(1); seed <= streams; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oldSide, newSide := newDiffSide(t), newDiffSide(t)
		oracle := newOracleChannel(oldSide.ctl)
		ch := NewCommunityChannel(newSide.ctl)
		last := make(map[session]routeserver.ControllerEvent)
		now := 0.0

		pick := func(ps []netip.Prefix, n int) []netip.Prefix {
			out := make([]netip.Prefix, n)
			for i := range out {
				out[i] = ps[rng.Intn(len(ps))]
			}
			return out
		}
		for i := 0; i < eventsPerStream; i++ {
			now += []float64{0, 0.25, 1, 4}[rng.Intn(4)]
			if rng.Intn(3) == 0 {
				oldSide.ctl.Process(now)
				newSide.ctl.Process(now)
			}
			s := sessions[rng.Intn(len(sessions))]
			ps := pool(s.member)
			ev := routeserver.ControllerEvent{
				Peer: memberName(s.member), PeerAS: uint32(64512 + s.member), PathID: s.pathID,
			}
			switch op := rng.Intn(10); {
			case op < 4: // announce, sometimes several prefixes or one twice
				ev.Announced = pick(ps, 1+rng.Intn(3))
				ev.Attrs = signalAttrs(t, signalSets[rng.Intn(len(signalSets))]...)
			case op < 6: // unchanged re-announce (a refresh)
				prev, ok := last[s]
				if !ok {
					continue
				}
				ev = prev
			case op < 8: // withdraw, known or not
				ev.Withdrawn = pick(ps, 1+rng.Intn(2))
			case op < 9: // withdraw and announce the same prefix in one event
				ev.Announced = pick(ps, 1)
				ev.Withdrawn = append(pick(ps, 1), ev.Announced[0])
				ev.Attrs = signalAttrs(t, signalSets[rng.Intn(len(signalSets))]...)
			default: // session loss
				ev.Withdrawn = ps
			}
			if len(ev.Announced) > 1 && len(core.SignalsFrom(&ev.Attrs)) > 0 {
				// The one documented difference: among several announced
				// keys, the incremental channel cannot tell a fresh path
				// from one announced earlier with nothing to desire, and
				// sorts both as fresh. Keep such events to one key.
				for _, p := range ev.Announced {
					if oracle.plain(rib.PathKey{Prefix: p, Peer: ev.Peer, PathID: ev.PathID}) {
						ev.Announced = ev.Announced[:1]
						break
					}
				}
			}
			if len(ev.Announced) > 0 {
				last[s] = ev
			}
			oracle.HandleEvent(ev, now)
			ch.HandleEvent(ev, now)
			checkRefs(t, ch)
			if len(oldSide.events) != len(newSide.events) {
				t.Fatalf("seed %d event %d (%+v): %d lifecycle events, oracle %d",
					seed, i, ev, len(newSide.events), len(oldSide.events))
			}
		}
		now += 100 // the change queue drains
		oldSide.ctl.Process(now)
		newSide.ctl.Process(now)
		for _, ev := range oldSide.events {
			if ev.Type == EventRejected && !strings.Contains(ev.Mitigation.LastError, ErrValidation.Error()) {
				refused++
			}
		}

		for i := range oldSide.events {
			if !reflect.DeepEqual(oldSide.events[i], newSide.events[i]) {
				t.Fatalf("seed %d: lifecycle event %d diverges:\n oracle %+v\n got    %+v",
					seed, i, oldSide.events[i], newSide.events[i])
			}
		}
		if len(oldSide.events) != len(newSide.events) {
			t.Fatalf("seed %d: %d lifecycle events, oracle %d", seed, len(newSide.events), len(oldSide.events))
		}
		if want, got := oldSide.ctl.Snapshot(), newSide.ctl.Snapshot(); !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: snapshots diverge:\n oracle %+v\n got    %+v", seed, want, got)
		}
		if want, got := oldSide.ctl.ErrorCount(), newSide.ctl.ErrorCount(); want != got {
			t.Fatalf("seed %d: %d errors, oracle %d", seed, got, want)
		}
		if want, got := oldSide.rules(t), newSide.rules(t); !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: installed rules diverge:\n oracle %v\n got    %v", seed, want, got)
		}
		if want, got := len(oracle.desired), ch.SignalingPaths(); want != got {
			t.Fatalf("seed %d: %d signaling paths, oracle %d", seed, got, want)
		}
	}
	if refused == 0 {
		t.Fatal("the hardware refused no mitigation: the streams no longer exercise refusals")
	}
}

// TestCommunityChannelMixedAnnounceOrder pins the order the differential
// test steers around: one signaling UPDATE naming a fresh prefix and a
// prefix announced earlier without signals requests both in prefix
// order, where the snapshot diff put the fresh one first.
func TestCommunityChannelMixedAnnounceOrder(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	ch := NewCommunityChannel(ctl)
	var requested []netip.Prefix
	ctl.Subscribe(func(ev Event) {
		if ev.Type == EventRequested {
			requested = append(requested, ev.Mitigation.Target)
		}
	})
	earlier, fresh := h.target(0), netip.MustParsePrefix("100.0.0.11/32")
	ev := routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Announced: []netip.Prefix{earlier},
	}
	ch.HandleEvent(ev, 0)
	if n := ch.SignalingPaths(); n != 0 {
		t.Fatalf("plain announcement tracked: %d", n)
	}
	ev.Announced = []netip.Prefix{fresh, earlier}
	ev.Attrs = signalAttrs(t, core.DropUDPSrcPort(123))
	ch.HandleEvent(ev, 1)
	if want := []netip.Prefix{earlier, fresh}; !reflect.DeepEqual(requested, want) {
		t.Fatalf("request order %v, want %v", requested, want)
	}
}

// TestCommunityChannelCostIndependentOfTableSize pins the point of the
// incremental channel with allocation counts (not timings): an event
// allocates the same whatever the number of standing paths or standing
// mitigations.
func TestCommunityChannelCostIndependentOfTableSize(t *testing.T) {
	plain := bgp.PathAttrs{Origin: bgp.OriginIGP}
	probe := netip.MustParsePrefix("100.0.0.10/32")
	standing := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
	}

	plainAllocs := func(paths int) (announce, withdraw float64) {
		ch := NewCommunityChannel(New(newHarness(t, 1, nil).config()))
		// Half of the standing paths signal, so the desired map is large
		// too; none of them is touched by the probe events.
		signaling := signalAttrs(t, core.DropUDPSrcPort(123))
		for i := 0; i < paths; i++ {
			ev := routeserver.ControllerEvent{
				Peer: memberName(0), PeerAS: 64512, PathID: 1,
				Announced: []netip.Prefix{standing(i)}, Attrs: plain,
			}
			if i%2 == 0 {
				ev.Peer, ev.Attrs = "elsewhere", signaling
			}
			ch.HandleEvent(ev, 0)
		}
		if got := ch.SignalingPaths(); got != (paths+1)/2 {
			t.Fatalf("%d signaling paths of %d", got, paths)
		}
		ann := routeserver.ControllerEvent{
			Peer: memberName(0), PeerAS: 64512, PathID: 1,
			Announced: []netip.Prefix{probe}, Attrs: plain,
		}
		wd := ann
		wd.Announced, wd.Withdrawn = nil, ann.Announced
		return testing.AllocsPerRun(50, func() { ch.HandleEvent(ann, 1) }),
			testing.AllocsPerRun(50, func() { ch.HandleEvent(wd, 1) })
	}
	smallAnn, smallWd := plainAllocs(1000)
	largeAnn, largeWd := plainAllocs(50000)
	if smallAnn != largeAnn || smallWd != largeWd {
		t.Fatalf("non-signaling event allocations grow with the table: announce %v -> %v, withdraw %v -> %v",
			smallAnn, largeAnn, smallWd, largeWd)
	}
	if smallAnn != 0 || smallWd != 0 {
		t.Fatalf("non-signaling event allocates: announce %v, withdraw %v", smallAnn, smallWd)
	}

	signalingAllocs := func(mitigations int) float64 {
		limits := hw.DefaultEdgeRouterLimits(2, 1024) // room for the standing rules
		h := newHarness(t, 2, &limits)
		h.reg.Register(h.asns[memberName(1)], netip.MustParsePrefix("10.0.0.0/8"))
		cfg := h.config()
		cfg.QueueRate, cfg.QueueBurst = 1e6, 1<<20
		ctl := New(cfg)
		ch := NewCommunityChannel(ctl)
		ntp := signalAttrs(t, core.DropUDPSrcPort(123))
		// Standing mitigations are member 1's, signaled like the probe is.
		for i := 0; i < mitigations; i++ {
			ch.HandleEvent(routeserver.ControllerEvent{
				Peer: memberName(1), PeerAS: 64513, PathID: 2,
				Announced: []netip.Prefix{standing(i)}, Attrs: ntp,
			}, 0)
		}
		ctl.Process(0)
		if got := len(ctl.Active()); got != mitigations || ch.SignalingPaths() != mitigations {
			t.Fatalf("%d standing mitigations active on %d paths, want %d", got, ch.SignalingPaths(), mitigations)
		}
		ann := routeserver.ControllerEvent{
			Peer: memberName(0), PeerAS: 64512, PathID: 1,
			Announced: []netip.Prefix{probe}, Attrs: ntp,
		}
		wd := ann
		wd.Announced, wd.Withdrawn = nil, ann.Announced
		now := 1.0
		return testing.AllocsPerRun(50, func() {
			ch.HandleEvent(ann, now)
			ch.HandleEvent(wd, now)
			now++
		})
	}
	// Equal without the race detector; under it sync.Pool sheds entries at
	// random and fmt's share of the count wobbles by a few, where one
	// snapshot of 1 024 paths per event adds a quarter.
	empty, full := signalingAllocs(0), signalingAllocs(1024)
	if math.Abs(full-empty) > empty/10 {
		t.Fatalf("signaling announce/withdraw allocations grow with standing mitigations: %v -> %v", empty, full)
	}
}

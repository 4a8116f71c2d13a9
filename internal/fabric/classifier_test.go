package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/netpkt"
)

// linearClassify is the reference implementation: the seed's first-match
// linear scan over the install order.
func linearClassify(rules []*Rule, f *netpkt.FlowKey) *Rule {
	for _, r := range rules {
		if r.Match.Matches(f) {
			return r
		}
	}
	return nil
}

// randomMatch draws a match pattern touching a small value space so
// rules overlap and every match field is exercised.
func randomMatch(rng *rand.Rand, macs []netpkt.MAC) Match {
	m := MatchAll()
	if rng.Intn(10) < 3 {
		mac := macs[rng.Intn(len(macs))]
		m.SrcMAC = &mac
	}
	if rng.Intn(10) < 6 {
		m.Proto = []netpkt.IPProto{netpkt.ProtoUDP, netpkt.ProtoTCP, netpkt.ProtoICMP}[rng.Intn(3)]
	}
	if rng.Intn(10) < 3 {
		m.SrcIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(4) * 64)}), 24+rng.Intn(9))
	}
	if rng.Intn(10) < 3 {
		m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(rng.Intn(3)), 0}), 8+rng.Intn(25))
	}
	if rng.Intn(10) < 4 {
		m.SrcPort = int32([]uint16{0, 19, 53, 123, 389, 11211}[rng.Intn(6)])
	}
	if rng.Intn(10) < 4 {
		m.DstPort = int32([]uint16{80, 443, 8080}[rng.Intn(3)])
	}
	return m
}

func randomFlow(rng *rand.Rand, macs []netpkt.MAC) netpkt.FlowKey {
	return netpkt.FlowKey{
		SrcMAC:  macs[rng.Intn(len(macs))],
		Src:     netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(256))}),
		Dst:     netip.AddrFrom4([4]byte{100, 10, byte(rng.Intn(3)), byte(rng.Intn(256))}),
		Proto:   []netpkt.IPProto{netpkt.ProtoUDP, netpkt.ProtoTCP, netpkt.ProtoICMP}[rng.Intn(3)],
		SrcPort: []uint16{0, 19, 53, 123, 389, 11211, 40000}[rng.Intn(7)],
		DstPort: []uint16{80, 443, 8080, 22}[rng.Intn(4)],
	}
}

// TestClassifierMatchesLinearScan cross-validates the classifier against
// the linear reference over randomized overlapping rule sets, and a
// repeated lookup against the first.
func TestClassifierMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	macs := make([]netpkt.MAC, 6)
	for i := range macs {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:00:%02x", i+1))
	}
	for trial := 0; trial < 50; trial++ {
		p := NewPort("victim", macs[0], 1e9)
		n := 1 + rng.Intn(64)
		for i := 0; i < n; i++ {
			r := &Rule{ID: fmt.Sprintf("r%d", i), Match: randomMatch(rng, macs),
				Action: ActionKind(rng.Intn(3))}
			if r.Action == ActionShape {
				r.ShapeRateBps = 1e6
			}
			if err := p.InstallRule(r); err != nil {
				t.Fatal(err)
			}
		}
		rules := p.cls.Load().rules
		for q := 0; q < 200; q++ {
			f := randomFlow(rng, macs)
			want := linearClassify(rules, &f)
			if got := p.ClassifyHashed(&f, struct{}{}); got != want {
				t.Fatalf("trial %d: ClassifyHashed(%v, struct{}{}) = %v, want %v (rules: %v)", trial, f, got, want, rules)
			}
			// A repeated lookup must agree.
			if got := p.ClassifyHashed(&f, struct{}{}); got != want {
				t.Fatalf("trial %d: repeated ClassifyHashed(%v, struct{}{}) = %v, want %v", trial, f, got, want)
			}
		}
	}
}

// TestClassifierFirstMatchAcrossIndexes pins the priority semantics when
// the competing rules each pin a different field.
func TestClassifierFirstMatchAcrossIndexes(t *testing.T) {
	p := newVictimPort()
	// Install order: dst-port rule, then src-port rule, then dst-prefix
	// rule, then MAC rule, then a wildcard. All match the probe flow; the
	// first installed must win, then each removal promotes the next.
	mDst := MatchAll()
	mDst.Proto = netpkt.ProtoUDP
	mDst.DstPort = 443
	mSrc := MatchAll()
	mSrc.SrcPort = 123 // any proto, pinned src port
	mPfx := MatchAll()
	mPfx.DstIP = netip.MustParsePrefix("100.10.0.0/16")
	mMAC := MatchAll()
	mMAC.SrcMAC = &macPeerA
	order := []struct {
		id string
		m  Match
	}{
		{"by-dstport", mDst},
		{"by-srcport", mSrc},
		{"by-dstpfx", mPfx},
		{"by-mac", mMAC},
		{"wildcard", MatchAll()},
	}
	for _, r := range order {
		if err := p.InstallRule(&Rule{ID: r.id, Match: r.m, Action: ActionDrop}); err != nil {
			t.Fatal(err)
		}
	}
	f := udpFlow(macPeerA, srcIPA, 123) // matches every rule above
	for _, want := range order {
		got := p.ClassifyHashed(f, struct{}{})
		if got == nil || got.ID != want.id {
			t.Fatalf("want %s, got %v", want.id, got)
		}
		if err := p.RemoveRule(want.id); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.ClassifyHashed(f, struct{}{}); got != nil {
		t.Fatalf("empty port classified %v", got)
	}
}

// TestClassifierAnyProtoPortRule covers the proto-wildcard port bucket.
func TestClassifierAnyProtoPortRule(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.DstPort = 443 // any proto
	if err := p.InstallRule(&Rule{ID: "dst443", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	if r := p.ClassifyHashed(udpFlow(macPeerA, srcIPA, 123), struct{}{}); r == nil {
		t.Fatal("udp dst 443 missed")
	}
	if r := p.ClassifyHashed(tcpFlow(macPeerB, srcIPB, 443), struct{}{}); r == nil {
		t.Fatal("tcp dst 443 missed")
	}
	if r := p.ClassifyHashed(tcpFlow(macPeerB, srcIPB, 80), struct{}{}); r != nil {
		t.Fatalf("dst 80 matched %v", r)
	}
}

// TestClassifierIPv6Prefixes exercises v6 prefix matches.
func TestClassifierIPv6Prefixes(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.DstIP = netip.MustParsePrefix("2001:db8::/32")
	if err := p.InstallRule(&Rule{ID: "v6", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	in := netpkt.FlowKey{Src: netip.MustParseAddr("2001:db8:ff::1"),
		Dst: netip.MustParseAddr("2001:db8::10"), Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	out := in
	out.Dst = netip.MustParseAddr("2001:db9::10")
	if r := p.ClassifyHashed(&in, struct{}{}); r == nil {
		t.Fatal("v6 dst inside prefix missed")
	}
	if r := p.ClassifyHashed(&out, struct{}{}); r != nil {
		t.Fatalf("v6 dst outside prefix matched %v", r)
	}
	// A v4 flow must not match a v6 prefix.
	if r := p.ClassifyHashed(udpFlow(macPeerA, srcIPA, 123), struct{}{}); r != nil {
		t.Fatalf("v4 flow matched v6 rule: %v", r)
	}
}

// TestClassifierV4TrieDiscriminates: among 256 v4 /32 rules that
// differ only in the destination address bits, the lookup finds the one
// rule covering the flow.
func TestClassifierV4TrieDiscriminates(t *testing.T) {
	const n = 256
	rules := make([]*Rule, n)
	for i := range rules {
		m := MatchAll()
		m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(i / 256), byte(i)}), 32)
		rules[i] = &Rule{ID: fmt.Sprintf("d%03d", i), Match: m, Action: ActionDrop}
	}
	c := compile(rules, 1)
	f := netpkt.FlowKey{Src: srcIPA, Dst: netip.AddrFrom4([4]byte{100, 10, 0, 77}),
		Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	if got := c.classify(&f).rule; got == nil || got.ID != "d077" {
		t.Fatalf("classify: %v", got)
	}
}

// TestConcurrentRuleChurnAndClassify is the -race stress test: rule
// management, classification of a growing flow population and egress
// ticks all run concurrently against one port.
func TestConcurrentRuleChurnAndClassify(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	if err := p.InstallRule(&Rule{ID: "pinned-shape", Match: m, Action: ActionShape, ShapeRateBps: 1e8}); err != nil {
		t.Fatal(err)
	}

	const iters = 300
	var wg sync.WaitGroup
	// Writers: churn per-worker rule IDs.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("w%d-%d", w, i%8)
				mm := MatchAll()
				mm.Proto = netpkt.ProtoUDP
				mm.SrcPort = int32(1000 + w*100 + i%8)
				if err := p.InstallRule(&Rule{ID: id, Match: mm, Action: ActionDrop}); err != nil && err != ErrDuplicateRule {
					t.Error(err)
					return
				}
				if i%2 == 1 {
					if err := p.RemoveRule(id); err != nil && err != ErrNoSuchRule {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: classify, egress ticks (which also refill and drain the
	// pinned shaper), rule listing.
	offers := []Offer{
		{Flow: udpFlow(macPeerA, srcIPA, 123), Bytes: 1e6, Packets: 1000},
		{Flow: udpFlow(macPeerA, srcIPA, 1001), Bytes: 1e5, Packets: 100},
		{Flow: tcpFlow(macPeerB, srcIPB, 443), Bytes: 5e5, Packets: 500},
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p.egress(offers, 0.01, nil)
				p.ClassifyHashed(offers[i%len(offers)].Flow, struct{}{})
				// Fresh flows every iteration, scanned while the writers
				// publish generations; the churned rules cannot match
				// them, so the verdicts are known whatever generation
				// serves them.
				for j := 0; j < 16; j++ {
					src := netip.AddrFrom4([4]byte{198, 51, byte(w*64 + i>>4), byte(i<<4 + j)})
					if r := p.ClassifyHashed(udpFlow(macPeerA, src, 123), struct{}{}); r == nil || r.ID != "pinned-shape" {
						t.Errorf("ntp flow from %v classified %v", src, r)
						return
					}
					if r := p.ClassifyHashed(tcpFlow(macPeerB, src, 443), struct{}{}); r != nil {
						t.Errorf("tcp flow from %v classified %v", src, r)
						return
					}
				}
				if rs := p.cls.Load().rules; len(rs) == 0 {
					t.Error("pinned rule disappeared")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := p.Rule("pinned-shape"); err != nil {
		t.Fatalf("pinned rule lost: %v", err)
	}
}

// TestConcurrentFabricTicks races whole-fabric ticks against rule churn
// across many ports (the parallel egress pool under -race).
func TestConcurrentFabricTicks(t *testing.T) {
	f := New()
	const ports = 8
	macs := make([]netpkt.MAC, ports)
	offers := make(TickOffers, ports)
	for i := 0; i < ports; i++ {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:01:%02x", i))
		name := fmt.Sprintf("port%d", i)
		if err := f.AddPort(NewPort(name, macs[i], 1e9)); err != nil {
			t.Fatal(err)
		}
		offers[name] = []Offer{
			{Flow: udpFlow(macs[i], srcIPA, 123), Bytes: 2e5, Packets: 200},
			{Flow: tcpFlow(macs[i], srcIPB, 443), Bytes: 1e5, Packets: 100},
		}
	}
	pool := NewPool(4)
	defer pool.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := f.Tick(pool, offers, 0.01, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		m := MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = 123
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("port%d", i%ports)
			port, err := f.PortByName(name)
			if err != nil {
				t.Error(err)
				return
			}
			_ = port.InstallRule(&Rule{ID: "churn", Match: m, Action: ActionDrop})
			_ = port.RemoveRule("churn")
		}
	}()
	wg.Wait()
}

// TestConcurrentTicksShareThePositionalCache is the -race test of a
// port's positions: two goroutines tick the same ports under a fixed
// rule set, one offering each port's flows in order and the other in
// reverse, so each egress either holds a port's positions while the
// other re-learns them or loses them to the other and scans every offer.
// Every offer's fate, in every tick, must be the linear scan's.
func TestConcurrentTicksShareThePositionalCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	macs := make([]netpkt.MAC, 6)
	for i := range macs {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:00:%02x", i+1))
	}
	f := New()
	const ports, flows = 4, 512
	forward, reverse := TickOffers{}, TickOffers{}
	rules := map[string][]*Rule{}
	for i := 0; i < ports; i++ {
		name := fmt.Sprintf("port%d", i)
		p := NewPort(name, netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:02:%02x", i)), 1e15)
		if err := f.AddPort(p); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			r := &Rule{ID: fmt.Sprintf("r%d", j), Match: randomMatch(rng, macs),
				Action: []ActionKind{ActionDrop, ActionForward}[rng.Intn(2)]}
			if err := p.InstallRule(r); err != nil {
				t.Fatal(err)
			}
			rules[name] = append(rules[name], r)
		}
		keys := make([]netpkt.FlowKey, flows)
		for j := range keys {
			keys[j] = randomFlow(rng, macs)
			forward[name] = append(forward[name], Offer{Flow: &keys[j], Bytes: 1000, Packets: 1})
		}
		reverse[name] = slices.Clone(forward[name])
		slices.Reverse(reverse[name])
	}
	// tick runs ticks egresses of offers and checks every offer's fate.
	tick := func(offers TickOffers, ticks int) error {
		delivered := map[*Offer]bool{}
		sink := func(_ int, _ string) FlowVisitor {
			return func(ds []Delivery) {
				for _, d := range ds {
					delivered[d.Offer] = true
				}
			}
		}
		for n := 0; n < ticks; n++ {
			clear(delivered)
			if _, err := f.Tick(nil, offers, 1, sink); err != nil {
				return err
			}
			for name, port := range offers {
				for i := range port {
					want := linearClassify(rules[name], port[i].Flow)
					if drop := want != nil && want.Action == ActionDrop; delivered[&port[i]] == drop {
						return fmt.Errorf("tick %d, %s: flow %v delivered=%v, linear scan says %v", n, name, *port[i].Flow, !drop, want)
					}
				}
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = tick(forward, 50) }()
	go func() { defer wg.Done(); errs[1] = tick(reverse, 50) }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOldGenerationRacesNewer is the -race test of the positions
// generations share. An egress that loaded the classifier before a rule
// change runs on the old generation while the new one egresses the same
// offers, so each meets positions the other stamped; then the old
// generation runs once more, over positions the new one has all
// rewritten. Every verdict must be its own generation's linear-scan
// answer: a tick never takes a newer generation's verdict for its own,
// nor the new one an older's.
func TestOldGenerationRacesNewer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	macs := make([]netpkt.MAC, 6)
	for i := range macs {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:00:%02x", i+1))
	}
	p := NewPort("victim", macs[0], 1e15)
	keys := make([]netpkt.FlowKey, 256)
	offers := make([]Offer, len(keys))
	for i := range keys {
		keys[i] = randomFlow(rng, macs)
		offers[i] = Offer{Flow: &keys[i], Bytes: 1000, Packets: 1}
	}
	newRule := func(i int) *Rule {
		return &Rule{ID: fmt.Sprintf("r%d", i), Match: randomMatch(rng, macs),
			Action: []ActionKind{ActionDrop, ActionForward}[rng.Intn(2)]}
	}
	for i := 0; i < 3; i++ {
		if err := p.InstallRule(newRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	classify := func(gen *classifier) error {
		for i := range offers {
			want := linearClassify(gen.rules, &keys[i])
			if got := p.ClassifyHashed(&keys[i], struct{}{}); got != want {
				return fmt.Errorf("generation %d: flow %v classified %v, want %v", gen.seq, keys[i], got, want)
			}
		}
		return nil
	}
	for round := 0; round < 60; round++ {
		if err := generationFates(p.cls.Load(), offers); err != nil {
			t.Fatal(err)
		}
		old := p.cls.Load()
		var err error
		if rs := old.rules; len(rs) > 0 && rng.Intn(2) == 0 {
			err = p.RemoveRule(rs[rng.Intn(len(rs))].ID)
		} else {
			err = p.InstallRule(newRule(3 + round))
		}
		if err != nil {
			t.Fatal(err)
		}
		cur := p.cls.Load()
		if len(cur.rules) == 0 {
			continue // a rule-free generation has no positions to race on
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = generationFates(old, offers) }()
		go func() { defer wg.Done(); errs[1] = errors.Join(classify(cur), generationFates(cur, offers)) }()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := generationFates(old, offers); err != nil {
			t.Fatalf("round %d, after the new generation: %v", round, err)
		}
	}
}

// generationFates runs one egress of offers on generation gen, the way
// a port whose classifier load preceded later rule changes does, over
// the positions gen shares with the port's other generations, and
// checks each offer's fate with the linear scan over gen's rules.
func generationFates(gen *classifier, offers []Offer) error {
	q := &Port{Name: "old", CapacityBps: 1e15}
	q.cls.Store(gen)
	delivered := make(map[*Offer]bool, len(offers))
	q.egress(offers, 1, func(ds []Delivery) {
		for _, d := range ds {
			delivered[d.Offer] = true
		}
	})
	for i := range offers {
		want := linearClassify(gen.rules, offers[i].Flow)
		if drop := want != nil && want.Action == ActionDrop; delivered[&offers[i]] == drop {
			return fmt.Errorf("generation %d: flow %v delivered=%v, linear scan says %v", gen.seq, *offers[i].Flow, !drop, want)
		}
	}
	return nil
}

// churnTrial is one port under random rule churn with the linear scan's
// view of it kept beside: rules is the install order the port must
// agree with, removed the rules taken out so far (re-install fodder).
type churnTrial struct {
	t       *testing.T
	rng     *rand.Rand
	macs    []netpkt.MAC
	p       *Port
	rules   []*Rule
	removed []*Rule
	offers  []Offer
	nextID  int
	// cases counts the rule changes and offer mutations the tests name,
	// so a test can assert the generator really produced each of them.
	cases map[string]int
}

func (c *churnTrial) install(r *Rule) {
	c.t.Helper()
	if err := c.p.InstallRule(r); err != nil {
		c.t.Fatal(err)
	}
	c.rules = append(c.rules, r)
}

func (c *churnTrial) remove(i int) {
	c.t.Helper()
	r := c.rules[i]
	if err := c.p.RemoveRule(r.ID); err != nil {
		c.t.Fatal(err)
	}
	c.rules = append(c.rules[:i:i], c.rules[i+1:]...)
	c.removed = append(c.removed, r)
}

func (c *churnTrial) newRule(m Match) *Rule {
	c.nextID++
	return &Rule{ID: fmt.Sprintf("r%d", c.nextID), Match: m,
		Action: []ActionKind{ActionDrop, ActionForward}[c.rng.Intn(2)]}
}

// matchers returns the indexes of the rules matching f, in priority
// order; the first is the verdict.
func (c *churnTrial) matchers(f *netpkt.FlowKey) []int {
	var out []int
	for i, r := range c.rules {
		if r.Match.Matches(f) {
			out = append(out, i)
		}
	}
	return out
}

// change applies one random rule change.
func (c *churnTrial) change() {
	c.t.Helper()
	f := c.offers[c.rng.Intn(len(c.offers))].Flow
	switch k := c.rng.Intn(7); {
	case k == 0 && len(c.rules) > 0:
		// A lower-priority twin of an installed rule: whatever that rule
		// catches now has a second matcher waiting behind it.
		c.install(c.newRule(c.rules[c.rng.Intn(len(c.rules))].Match))
	case k == 1 && len(c.rules) > 0:
		c.remove(c.rng.Intn(len(c.rules)))
	case k == 2:
		// Remove the verdict of a flow that a lower-priority rule also
		// matches: the verdict must fall through to that rule.
		if ms := c.matchers(f); len(ms) > 1 {
			c.remove(ms[0])
			c.cases["remove verdict above another matcher"]++
		}
	case k == 3:
		// Remove a rule an earlier one shadows: the verdict must stand.
		if ms := c.matchers(f); len(ms) > 1 {
			c.remove(ms[1+c.rng.Intn(len(ms)-1)])
			c.cases["remove shadowed rule"]++
		}
	case k == 4 && len(c.removed) > 0:
		// Re-install a removed ID, as the same *Rule or as a new rule
		// that only shares the ID.
		i := c.rng.Intn(len(c.removed))
		r := c.removed[i]
		c.removed = append(c.removed[:i:i], c.removed[i+1:]...)
		if c.rng.Intn(2) == 0 {
			r = &Rule{ID: r.ID, Match: randomMatch(c.rng, c.macs), Action: r.Action}
		}
		c.install(r)
		c.cases["re-install removed ID"]++
	default:
		c.install(c.newRule(randomMatch(c.rng, c.macs)))
	}
}

// wipe removes every rule, in random order, then installs the same
// rules again in a shuffled order, with a pass at zero rules now and
// then: a signal's withdraw and the next announce on a victim port, and
// a rule-free generation between two generations that have rules.
func (c *churnTrial) wipe() {
	c.t.Helper()
	if len(c.rules) == 0 {
		return
	}
	rules := append([]*Rule(nil), c.rules...)
	for len(c.rules) > 0 {
		c.remove(c.rng.Intn(len(c.rules)))
	}
	if c.rng.Intn(2) == 0 {
		c.pass()
	}
	c.removed = c.removed[:len(c.removed)-len(rules)]
	c.rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
	for _, r := range rules {
		c.install(r)
	}
	c.cases["remove every rule and re-add them"]++
}

// pass classifies the whole flow set every way the port offers and
// compares each verdict, and the egress byte totals, with the linear
// scan.
func (c *churnTrial) pass() {
	c.t.Helper()
	var wantDropped, wantDelivered float64
	for i := range c.offers {
		o := &c.offers[i]
		want := linearClassify(c.rules, o.Flow)
		if got := c.p.ClassifyHashed(o.Flow, struct{}{}); got != want {
			c.t.Fatalf("ClassifyHashed(%v, struct{}{}) = %v, want %v (rules %v)", *o.Flow, got, want, c.rules)
		}
		if got := c.p.ClassifyHashed(o.Flow, o.FlowHash); got != want {
			c.t.Fatalf("ClassifyHashed(%v, o.FlowHash) = %v, want %v (rules %v)", *o.Flow, got, want, c.rules)
		}
		if want != nil && want.Action == ActionDrop {
			wantDropped += o.Bytes
		} else {
			wantDelivered += o.Bytes
		}
	}
	res := c.p.egress(c.offers, 1, nil)
	if res.RuleDroppedBytes != wantDropped || res.DeliveredBytes != wantDelivered {
		c.t.Fatalf("Egress dropped %v delivered %v, linear scan %v / %v (rules %v)",
			res.RuleDroppedBytes, res.DeliveredBytes, wantDropped, wantDelivered, c.rules)
	}
}

// TestClassifierMatchesLinearScanUnderChurn is the differential test of
// a port across rule changes: random InstallRule/RemoveRule sequences
// interleaved with classification passes over a fixed flow set, so the
// positions are warm before every change, and every verdict compared
// with the linear scan. Now and then a step removes every rule and
// re-adds them.
func TestClassifierMatchesLinearScanUnderChurn(t *testing.T) {
	macs := make([]netpkt.MAC, 6)
	for i := range macs {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:00:%02x", i+1))
	}
	cases := map[string]int{}
	for trial := 0; trial < 250; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		c := &churnTrial{t: t, rng: rng, macs: macs, cases: cases,
			p: NewPort("victim", macs[0], 1e15)}
		seen := map[netpkt.FlowKey]bool{}
		for len(c.offers) < 96 {
			f := randomFlow(rng, macs)
			if seen[f] {
				continue
			}
			seen[f] = true
			c.offers = append(c.offers, Offer{Flow: &f, Bytes: float64(1 + rng.Intn(1e6)), Packets: 1})
		}
		for i := rng.Intn(4); i > 0; i-- {
			c.install(c.newRule(randomMatch(rng, macs)))
		}
		c.pass()
		for step := 0; step < 24; step++ {
			if rng.Intn(16) == 0 {
				c.wipe()
				c.pass()
				continue
			}
			// Zero, one and several changes between passes, so a
			// verdict meets stamps one and many generations old.
			n := []int{0, 1, 1, 1, 2, 3, 5, 11}[rng.Intn(8)]
			if n > 1 {
				cases["several changes since the last pass"]++
			}
			for ; n > 0; n-- {
				c.change()
			}
			c.pass()
		}
	}
	for _, name := range []string{"remove verdict above another matcher", "remove shadowed rule",
		"re-install removed ID", "several changes since the last pass",
		"remove every rule and re-add them"} {
		if cases[name] < 50 {
			t.Errorf("generator produced %q only %d times", name, cases[name])
		}
	}
}

// TestPositionsReleaseAnOldKeyTable: the positional cache holds the key
// pointers of a port's last egress, and an egress cuts it to its own
// offers, so once a producer offers a shorter slice from another key
// table, the port no longer keeps the first table alive.
func TestPositionsReleaseAnOldKeyTable(t *testing.T) {
	p := newVictimPort()
	if err := p.InstallRule(dropNTPRule()); err != nil {
		t.Fatal(err)
	}
	const n = 64
	// egressTable egresses flows offers pointing into a fresh key table
	// of n NTP or DNS flows and returns the table.
	egressTable := func(flows int, srcPort uint16) *[n]netpkt.FlowKey {
		tab := new([n]netpkt.FlowKey)
		offers := make([]Offer, flows)
		for i := range offers {
			tab[i] = *udpFlow(macPeerA, netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}), srcPort)
			offers[i] = Offer{Flow: &tab[i], Bytes: 1000, Packets: 1}
		}
		want := 0.0
		if srcPort == 123 {
			want = 1000 * float64(flows)
		}
		if res := p.egress(offers, 1, nil); res.RuleDroppedBytes != want {
			t.Fatalf("dropped %v bytes of %d offers from source port %d, want %v", res.RuleDroppedBytes, flows, srcPort, want)
		}
		return tab
	}
	var collected atomic.Bool
	runtime.SetFinalizer(egressTable(n, 123), func(*[n]netpkt.FlowKey) { collected.Store(true) })
	egressTable(n/8, 53)
	awaitCollected(t, "the first key table, after the port egressed a shorter slice from another,", &collected)
	runtime.KeepAlive(p) // the port, and with it its positions, stays live
}

// awaitCollected runs the garbage collector until collected is set (by
// a finalizer) and fails, naming what, if it is not within 10 seconds.
func awaitCollected(t *testing.T, what string, collected *atomic.Bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !collected.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("%s is still reachable", what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestRuleFreePortReleasesPositionsAlloc: withdrawing a port's last rule
// empties its positions, so neither the key table of its last egress
// nor the withdrawn generation's verdicts stay reachable through the
// port. The positions keep their backing array, so a re-announce and
// its first egress allocate only what the rule change itself does: no
// positions.
func TestRuleFreePortReleasesPositionsAlloc(t *testing.T) {
	const n = 4096
	p := newVictimPort()
	rule := dropNTPRule()
	// ntpOffers points n NTP offers into a fresh key table.
	ntpOffers := func() []Offer {
		tab := make([]netpkt.FlowKey, n)
		offers := make([]Offer, n)
		for i := range offers {
			tab[i] = *udpFlow(macPeerA, netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), 123)
			offers[i] = Offer{Flow: &tab[i], Bytes: 1000, Packets: 1}
		}
		return offers
	}
	announce := func() {
		if err := p.InstallRule(rule); err != nil {
			t.Fatal(err)
		}
	}
	withdraw := func() {
		if err := p.RemoveRule(rule.ID); err != nil {
			t.Fatal(err)
		}
	}
	var keysGone, verdictsGone atomic.Bool
	func() {
		announce()
		offers := ntpOffers()
		if res := p.egress(offers, 1, nil); res.RuleDroppedBytes != 1000*n {
			t.Fatalf("dropped %v bytes of %d NTP offers, want all", res.RuleDroppedBytes, n)
		}
		runtime.SetFinalizer(offers[0].Flow, func(*netpkt.FlowKey) { keysGone.Store(true) })
		runtime.SetFinalizer(&p.cls.Load().verdicts[0], func(*verdict) { verdictsGone.Store(true) })
		withdraw()
	}()
	awaitCollected(t, "the key table of the last egress with rules, after the withdrawal,", &keysGone)
	awaitCollected(t, "the withdrawn generation's verdicts", &verdictsGone)

	offers := ntpOffers()
	// The egress scratch comes from a sync.Pool, which the race detector
	// makes drop entries at random: allow the scratch's regrowth there.
	slack := 0.0
	if raceEnabled {
		slack = 1
	}
	changes := testing.AllocsPerRun(20, func() { announce(); withdraw() })
	cycle := testing.AllocsPerRun(20, func() {
		announce()
		if res := p.egress(offers, 1, nil); res.RuleDroppedBytes != 1000*n {
			t.Fatalf("re-announced rule dropped %v bytes, want all", res.RuleDroppedBytes)
		}
		withdraw()
	})
	if cycle > changes+slack {
		t.Errorf("re-announce, egress, withdraw: %v allocations, the rule changes alone %v; the egress allocated positions", cycle, changes)
	}
	runtime.KeepAlive(p)
}

// newOffer draws a flow the trial does not offer yet.
func (c *churnTrial) newOffer() Offer {
	for {
		f := randomFlow(c.rng, c.macs)
		if slices.ContainsFunc(c.offers, func(o Offer) bool { return *o.Flow == f }) {
			continue
		}
		return Offer{Flow: &f, Bytes: float64(1 + c.rng.Intn(1e6)), Packets: 1}
	}
}

// Offer mutations, the ways a producer may change its offer slice
// between two egress ticks.
const (
	mutKeep = iota
	mutRotate
	mutDrop
	mutInsert
	mutNewKey
	mutEdit
	mutKinds
)

// reorder applies one random offer mutation.
func (c *churnTrial) reorder() { c.mutate(c.rng.Intn(mutKinds)) }

// mutate changes the offer slice by mutation kind k: it keeps the
// order, rotates it, drops an offer, inserts a new flow mid-slice,
// points a position at a new key or at an edited copy of its key (a
// producer that changes a flow makes a new key; Offer). Rotating
// and dropping need two offers; with fewer they keep the order, and a
// kind past the last keeps it too.
func (c *churnTrial) mutate(k int) {
	switch {
	case k == mutRotate && len(c.offers) > 1:
		n := 1 + c.rng.Intn(len(c.offers)-1)
		c.offers = append(c.offers[n:], c.offers[:n]...)
		c.cases["rotate the offers"]++
	case k == mutDrop && len(c.offers) > 1:
		i := c.rng.Intn(len(c.offers))
		c.offers = append(c.offers[:i:i], c.offers[i+1:]...)
		c.cases["drop one offer"]++
	case k == mutInsert:
		i := c.rng.Intn(len(c.offers) + 1)
		c.offers = slices.Insert(slices.Clip(c.offers), i, c.newOffer())
		c.cases["insert a new flow"]++
	case k == mutNewKey:
		c.offers[c.rng.Intn(len(c.offers))] = c.newOffer()
		c.cases["point a position at a new key"]++
	case k == mutEdit:
		o := &c.offers[c.rng.Intn(len(c.offers))]
		f := randomFlow(c.rng, c.macs)
		o.Flow = &f
		c.cases["point a position at an edited copy of its key"]++
	default:
		c.cases["keep the order"]++
	}
}

// positionalHits counts the offers whose position already holds their
// key pointer: the ones the next egress serves without a scan, unless a
// rule change has made the position's stamp old.
func (c *churnTrial) positionalHits() int {
	ps := c.p.pos
	if ps == nil {
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for i, at := range ps.at[:min(len(ps.at), len(c.offers))] {
		if at.src == c.offers[i].Flow {
			n++
		}
	}
	return n
}

// egressFates runs one egress over the offers and checks each offer's
// fate with the linear scan: delivered or not through the egress
// visitor, and the rule it matched through that rule's counters; then
// it checks the positions the egress left (checkPositions).
func (c *churnTrial) egressFates() {
	c.t.Helper()
	gen := c.p.cls.Load()
	before := make(map[*Rule]int64, len(c.rules))
	for _, r := range c.rules {
		before[r] = r.counters.MatchedBytes.Load()
	}
	delivered := make(map[*Offer]bool, len(c.offers))
	c.p.egress(c.offers, 1, func(ds []Delivery) {
		for _, d := range ds {
			delivered[d.Offer] = true
		}
	})
	matched := make(map[*Rule]int64, len(c.rules))
	for i := range c.offers {
		o := &c.offers[i]
		want := linearClassify(c.rules, o.Flow)
		if drop := want != nil && want.Action == ActionDrop; delivered[o] == drop {
			c.t.Fatalf("offer %d, flow %v: delivered=%v, linear scan says %v (rules %v)", i, *o.Flow, delivered[o], want, c.rules)
		}
		if want != nil {
			matched[want] += int64(o.Bytes)
		}
	}
	for _, r := range c.rules {
		if got := r.counters.MatchedBytes.Load() - before[r]; got != matched[r] {
			c.t.Fatalf("rule %s matched %d bytes, linear scan %d (rules %v)", r.ID, got, matched[r], c.rules)
		}
	}
	c.checkPositions("egress", gen)
}

// TestEgressMatchesLinearScanUnderReorder is the differential test of
// a port's positions: between egress ticks the offers keep
// their order, rotate, lose an offer, gain a new flow mid-slice, have a
// position pointed at a new key or at an edited copy of its key, across
// random rule changes, and every offer's fate is compared with the
// linear scan.
func TestEgressMatchesLinearScanUnderReorder(t *testing.T) {
	macs := make([]netpkt.MAC, 6)
	for i := range macs {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:00:%02x", i+1))
	}
	cases := map[string]int{}
	var hits int
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		c := &churnTrial{t: t, rng: rng, macs: macs, cases: cases,
			p: NewPort("victim", macs[0], 1e15)}
		for len(c.offers) < 64 {
			c.offers = append(c.offers, c.newOffer())
		}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			c.install(c.newRule(randomMatch(rng, macs)))
		}
		c.egressFates()
		for step := 0; step < 32; step++ {
			c.reorder()
			for n := []int{0, 0, 1, 1, 2, 3}[rng.Intn(6)]; n > 0; n-- {
				c.change()
			}
			hits += c.positionalHits()
			c.egressFates()
		}
	}
	for _, name := range []string{"keep the order", "rotate the offers", "drop one offer",
		"insert a new flow", "point a position at a new key", "point a position at an edited copy of its key"} {
		if cases[name] < 500 {
			t.Errorf("generator produced %q only %d times", name, cases[name])
		}
	}
	if hits < 100000 {
		t.Errorf("only %d offers met their own key pointer in the positional cache", hits)
	}
}

// checkPositions fails unless every position holds its offer's key
// pointer and gen's verdict for that key, stamped with gen's number:
// what an egress on generation gen leaves, whether it served a position
// or scanned the offer. So a position is served only when its stamp is
// gen's own and its pointer the offer's: one served without the pointer
// compare keeps another key's pointer, and one served under an older
// stamp keeps that stamp. A rule-free gen has no positions.
func (c *churnTrial) checkPositions(when string, gen *classifier) {
	c.t.Helper()
	if gen.pos == nil {
		return
	}
	gen.pos.mu.Lock()
	defer gen.pos.mu.Unlock()
	if len(gen.pos.at) != len(c.offers) {
		c.t.Fatalf("%s: %d positions for %d offers", when, len(gen.pos.at), len(c.offers))
	}
	for i, at := range gen.pos.at {
		f := c.offers[i].Flow
		switch want := linearClassify(gen.rules, f); {
		case at.src != f:
			c.t.Fatalf("%s: position %d holds key %v, its offer points at %v", when, i, *at.src, *f)
		case at.v.seq != gen.seq:
			c.t.Fatalf("%s: position %d (flow %v) stamped by generation %d after an egress on %d", when, i, *f, at.v.seq, gen.seq)
		case at.v.rule != want:
			c.t.Fatalf("%s: position %d (flow %v) holds %v, linear scan says %v", when, i, *f, at.v.rule, want)
		}
	}
}

// fuzzChanges maps bits 3-5 of a FuzzPortEgress op to the tick's rule
// changes; -1 removes every rule and re-adds them.
var fuzzChanges = [8]int{0, 0, 1, 1, 2, 3, 11, -1}

// FuzzPortEgress runs one port's offers (2 + size mod 96 flows to start
// with) through up to 64 egress ticks, one per op byte. Bits 0-2 mutate
// the offers before the tick (keep, rotate, drop, insert, point a
// position at a new key, point a position at an edited copy of its key;
// 6 and 7 keep). Bits
// 3-5 apply none, one, several or eleven random rule changes, or remove
// every rule and re-add them (fuzzChanges). Bit 6 first classifies every
// offer through ClassifyHashed, passing the zero value and then the
// offer's FlowHash as the benchmark's probe does. Then the
// tick's egress runs, and with bit 7 so does one on the generation the
// port had before the tick's rule changes, over the entries the newer
// one has just stamped. Every verdict and every offer's fate is compared
// with the linear scan over that generation's rules, and after each
// egress every position must hold its offer's pointer under that
// generation's verdict (checkPositions). The seed corpus takes the first
// three trial seeds and the flow counts of
// TestEgressMatchesLinearScanUnderReorder (64 flows) and
// TestClassifierMatchesLinearScanUnderChurn (96), with 32 op bytes each
// drawn from the seed.
func FuzzPortEgress(f *testing.F) {
	for trial := 0; trial < 3; trial++ {
		for _, tc := range []struct {
			seed int64
			size uint8
		}{{int64(5000 + trial), 64 - 2}, {int64(1000 + trial), 96 - 2}} {
			rng := rand.New(rand.NewSource(tc.seed))
			ops := make([]byte, 32)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			f.Add(tc.seed, tc.size, ops)
		}
	}
	macs := make([]netpkt.MAC, 6)
	for i := range macs {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:00:%02x", i+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		c := &churnTrial{t: t, rng: rng, macs: macs, cases: map[string]int{},
			p: NewPort("victim", macs[0], 1e15)}
		for n := 2 + int(size)%96; len(c.offers) < n; {
			c.offers = append(c.offers, c.newOffer())
		}
		for tick, op := range ops {
			if tick > 0 {
				c.mutate(int(op & 7))
			}
			before := c.p.cls.Load()
			if n := fuzzChanges[op>>3&7]; n < 0 {
				c.wipe()
			} else {
				for ; n > 0; n-- {
					c.change()
				}
			}
			if op>>6&1 == 1 {
				c.pass()
			}
			c.egressFates()
			if op>>7 == 1 {
				if err := generationFates(before, c.offers); err != nil {
					t.Fatalf("tick %d, the generation before the rule changes: %v", tick, err)
				}
				c.checkPositions("egress on the generation before", before)
			}
		}
	})
}

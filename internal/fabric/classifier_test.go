package fabric

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"stellar/internal/netpkt"
)

// linearClassify is the reference implementation: the seed's first-match
// linear scan over the install order.
func linearClassify(rules []*Rule, f netpkt.FlowKey) *Rule {
	for _, r := range rules {
		if r.Match.Matches(f) {
			return r
		}
	}
	return nil
}

// randomMatch draws a match pattern touching a small value space so
// rules overlap and every index of the compiled classifier is
// exercised.
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

// TestClassifierMatchesLinearScan cross-validates the compiled
// classifier against the linear reference over randomized overlapping
// rule sets, with and without pre-hashed lookups.
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
		rules := p.Rules()
		for q := 0; q < 200; q++ {
			f := randomFlow(rng, macs)
			want := linearClassify(rules, f)
			if got := p.Classify(f); got != want {
				t.Fatalf("trial %d: Classify(%v) = %v, want %v (rules: %v)", trial, f, got, want, rules)
			}
			if got := p.ClassifyHashed(f, f.Hash()); got != want {
				t.Fatalf("trial %d: ClassifyHashed(%v) = %v, want %v", trial, f, got, want)
			}
			// Memoized second lookup must agree.
			if got := p.Classify(f); got != want {
				t.Fatalf("trial %d: memoized Classify(%v) = %v, want %v", trial, f, got, want)
			}
		}
	}
}

// TestClassifierFirstMatchAcrossIndexes pins the priority semantics when
// the competing rules live in different compiled indexes.
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
		got := p.Classify(f)
		if got == nil || got.ID != want.id {
			t.Fatalf("want %s, got %v", want.id, got)
		}
		if err := p.RemoveRule(want.id); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Classify(f); got != nil {
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
	if r := p.Classify(udpFlow(macPeerA, srcIPA, 123)); r == nil {
		t.Fatal("udp dst 443 missed")
	}
	if r := p.Classify(tcpFlow(macPeerB, srcIPB, 443)); r == nil {
		t.Fatal("tcp dst 443 missed")
	}
	if r := p.Classify(tcpFlow(macPeerB, srcIPB, 80)); r != nil {
		t.Fatalf("dst 80 matched %v", r)
	}
}

// TestClassifierIPv6Prefixes exercises the v6 side of the prefix tries.
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
	if r := p.Classify(in); r == nil {
		t.Fatal("v6 dst inside prefix missed")
	}
	if r := p.Classify(out); r != nil {
		t.Fatalf("v6 dst outside prefix matched %v", r)
	}
	// A v4 flow must not be swallowed by the v6 trie.
	if r := p.Classify(udpFlow(macPeerA, srcIPA, 123)); r != nil {
		t.Fatalf("v4 flow matched v6 rule: %v", r)
	}
}

// TestClassifierV4TrieDiscriminates is the structural regression test
// for the v4 prefix trie: distinct v4 /32 rules must land on distinct
// trie nodes (indexed by real v4 address bits), not collapse onto one
// spine node, which would degrade dst-prefix blackholing back to a
// linear scan.
func TestClassifierV4TrieDiscriminates(t *testing.T) {
	const n = 256
	rules := make([]*Rule, n)
	for i := range rules {
		m := MatchAll()
		m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(i / 256), byte(i)}), 32)
		rules[i] = &Rule{ID: fmt.Sprintf("d%03d", i), Match: m, Action: ActionDrop}
	}
	c := compile(rules)
	var maxLoad int
	var walk func(nd *trieNode)
	walk = func(nd *trieNode) {
		if len(nd.cands) > maxLoad {
			maxLoad = len(nd.cands)
		}
		for _, ch := range nd.child {
			if ch != nil {
				walk(ch)
			}
		}
	}
	walk(c.dstTrie.v4)
	if maxLoad != 1 {
		t.Fatalf("a v4 trie node holds %d candidates; /32 rules must not share nodes", maxLoad)
	}
	// And the walk still finds the right rule.
	f := netpkt.FlowKey{Src: srcIPA, Dst: netip.AddrFrom4([4]byte{100, 10, 0, 77}),
		Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	if got := c.classify(&f); got == nil || got.ID != "d077" {
		t.Fatalf("classify: %v", got)
	}
}

// TestRulesDefensiveCopy pins the contract that mutating the slice
// returned by Rules cannot corrupt the port's rule order.
func TestRulesDefensiveCopy(t *testing.T) {
	p := newVictimPort()
	if err := p.InstallRule(dropNTPRule()); err != nil {
		t.Fatal(err)
	}
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	if err := p.InstallRule(&Rule{ID: "drop-udp", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	got := p.Rules()
	got[0], got[1] = got[1], got[0]
	got[0] = nil
	again := p.Rules()
	if len(again) != 2 || again[0].ID != "drop-ntp" || again[1].ID != "drop-udp" {
		t.Fatalf("port rules corrupted by caller mutation: %v", again)
	}
	if p.Classify(udpFlow(macPeerA, srcIPA, 123)).ID != "drop-ntp" {
		t.Fatal("classification order changed")
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
				p.Egress(offers, 0.01, nil)
				p.Classify(offers[i%len(offers)].Flow)
				// Fresh flows every iteration, so every reader inserts
				// into and doubles the memo tables the others are probing;
				// the churned rules cannot match them, so the verdicts are
				// known whatever generation serves them.
				for j := 0; j < 16; j++ {
					src := netip.AddrFrom4([4]byte{198, 51, byte(w*64 + i>>4), byte(i<<4 + j)})
					if r := p.Classify(udpFlow(macPeerA, src, 123)); r == nil || r.ID != "pinned-shape" {
						t.Errorf("ntp flow from %v classified %v", src, r)
						return
					}
					if r := p.Classify(tcpFlow(macPeerB, src, 443)); r != nil {
						t.Errorf("tcp flow from %v classified %v", src, r)
						return
					}
				}
				if rs := p.Rules(); len(rs) == 0 {
					t.Error("pinned rule disappeared")
					return
				}
				p.RuleCount()
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
	// cases counts the rule changes the issue names, so the test can
	// assert the generator really produced each of them.
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
func (c *churnTrial) matchers(f netpkt.FlowKey) []int {
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

// pass classifies the whole flow set every way the port offers and
// compares each verdict, and the egress byte totals, with the linear
// scan.
func (c *churnTrial) pass() {
	c.t.Helper()
	var wantDropped, wantDelivered float64
	for i := range c.offers {
		o := &c.offers[i]
		want := linearClassify(c.rules, o.Flow)
		if got := c.p.Classify(o.Flow); got != want {
			c.t.Fatalf("Classify(%v) = %v, want %v (rules %v)", o.Flow, got, want, c.rules)
		}
		if got := c.p.ClassifyHashed(o.Flow, o.FlowHash); got != want {
			c.t.Fatalf("ClassifyHashed(%v) = %v, want %v (rules %v)", o.Flow, got, want, c.rules)
		}
		if want != nil && want.Action == ActionDrop {
			wantDropped += o.Bytes
		} else {
			wantDelivered += o.Bytes
		}
	}
	res := c.p.Egress(c.offers, 1, nil)
	if res.RuleDroppedBytes != wantDropped || res.DeliveredBytes != wantDelivered {
		c.t.Fatalf("Egress dropped %v delivered %v, linear scan %v / %v (rules %v)",
			res.RuleDroppedBytes, res.DeliveredBytes, wantDropped, wantDelivered, c.rules)
	}
}

// TestClassifierMatchesLinearScanUnderChurn is the differential test of
// memo inheritance: random InstallRule/RemoveRule sequences interleaved
// with classification passes over a fixed flow set, so the memo is warm
// before every change, and every verdict compared with the linear scan.
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
			o := Offer{Flow: f, Bytes: float64(1 + rng.Intn(1e6)), Packets: 1}
			if rng.Intn(2) == 0 {
				o.FlowHash = f.Hash() // the rest are hashed on demand
			}
			c.offers = append(c.offers, o)
		}
		for i := rng.Intn(4); i > 0; i-- {
			c.install(c.newRule(randomMatch(rng, macs)))
		}
		c.pass()
		for step := 0; step < 24; step++ {
			// Zero, one and several changes between passes, and now and
			// then more than a generation inherits across.
			n := []int{0, 1, 1, 1, 2, 3, 5, maxInheritedChanges + 3}[rng.Intn(8)]
			if n > maxInheritedChanges {
				cases["past the inheritance bound"]++
			}
			for ; n > 0; n-- {
				c.change()
			}
			c.pass()
		}
	}
	for _, name := range []string{"remove verdict above another matcher", "remove shadowed rule",
		"re-install removed ID", "past the inheritance bound"} {
		if cases[name] < 50 {
			t.Errorf("generator produced %q only %d times", name, cases[name])
		}
	}
}

// TestClassifyHashCollision: two distinct flows presented under one
// 64-bit hash each get their own linear-scan verdict, before and after a
// rule change — the memo compares full keys.
func TestClassifyHashCollision(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	if err := p.InstallRule(&Rule{ID: "drop-ntp", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	f1 := udpFlow(macPeerA, srcIPA, 123) // dropped
	f2 := udpFlow(macPeerA, srcIPA, 124) // forwarded, until "drop-124" lands
	h := f1.Hash()
	check := func(when string) {
		t.Helper()
		rules := p.Rules()
		for i := 0; i < 3; i++ { // cold, then memoized
			if got, want := p.ClassifyHashed(f1, h), linearClassify(rules, f1); got != want {
				t.Fatalf("%s: f1 = %v, want %v", when, got, want)
			}
			if got, want := p.ClassifyHashed(f2, h), linearClassify(rules, f2); got != want {
				t.Fatalf("%s: f2 under f1's hash = %v, want %v", when, got, want)
			}
		}
	}
	check("before")
	m.SrcPort = 124
	if err := p.InstallRule(&Rule{ID: "drop-124", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	check("after install")
	if err := p.RemoveRule("drop-ntp"); err != nil {
		t.Fatal(err)
	}
	check("after remove")
}

// TestMemoBound: past maxMemoEntries distinct flows the memo stops
// growing and classification stays correct.
func TestMemoBound(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	r := &Rule{ID: "drop-ntp", Match: m, Action: ActionDrop}
	if err := p.InstallRule(r); err != nil {
		t.Fatal(err)
	}
	const flows = maxMemoEntries + 5000
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < flows; i++ {
			f := udpFlow(macPeerA, netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), uint16(123+i>>16))
			want := (*Rule)(nil)
			if f.SrcPort == 123 {
				want = r
			}
			if got := p.Classify(f); got != want {
				t.Fatalf("pass %d flow %d: %v, want %v", pass, i, got, want)
			}
		}
		memo := &p.cls.Load().memo
		if n, slots := memo.len(), len(memo.tab.Load().slots); n != maxMemoEntries || slots != 2*maxMemoEntries {
			t.Fatalf("pass %d: memo holds %d entries in %d slots, want %d in %d",
				pass, n, slots, maxMemoEntries, 2*maxMemoEntries)
		}
	}
}

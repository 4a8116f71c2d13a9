// Package federation composes several ixp.IXP exchanges into one
// multi-IXP deployment: the operational reality the paper's Section 6
// points at when it argues advanced blackholing only pays off once
// mitigation is coordinated across the exchanges an attack enters
// through.
//
// Build runs one conformance profile at N exchanges on one
// synchronized tick clock. Every exchange compiles the profile with its
// own topology seed, so each member has the same name, ASN, prefix and
// IRR entry everywhere while each exchange draws its own RTBH-honoring
// set and its own traffic. Each exchange keeps its own engine pipeline:
// traffic generation and control on a spine goroutine, monitoring and
// reporting folded behind the engine's bounded free/work mailbox, so
// the fold side of any exchange can later move behind a socket without
// touching the composition. All pipelines draw from one shared
// fabric.Pool, so aggregate parallelism stays bounded by a single
// worker budget rather than N of them.
//
// The inter-IXP signaling plane is a SpecGossip link: only exchange 0
// runs the profile's mitigate events, and the mitctl.Spec requests
// admitted there are relayed to every other exchange after a
// configurable propagation delay in ticks. The link relays no
// withdrawal, so a profile with withdraw events federates only at one
// exchange. Content-derived mitigation
// IDs make remote re-requests idempotent, and each exchange still
// applies its own admission and IRR validation to relayed requests.
// Run returns a consolidated Report: per-exchange and aggregate
// offered/delivered/nulled series plus, for every gossiped spec, where
// and how fast it was installed.
package federation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stellar/internal/conformance"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/mitctl"
)

// exchange is one member exchange of a federation: a fully wired IXP
// with the mitigation control plane, and the engine run the
// conformance runner compiled for it.
type exchange struct {
	IXP *ixp.IXP
	Cfg engine.Config
}

// exchangeName names exchange i in gossip provenance and the report.
func exchangeName(i int) string { return fmt.Sprintf("ixp%d", i) }

// installKey identifies one (mitigation, exchange) install.
type installKey struct {
	id string
	ex int
}

// Federation is a set of exchanges wired to one clock and one gossip
// link. Build one with Build, run it once with Run.
type Federation struct {
	exchanges []exchange
	gossip    *SpecGossip
	barrier   *tickBarrier

	mu          sync.Mutex
	lastControl []int              // per exchange: latest control tick entered
	suppress    []int              // per exchange: >0 while a gossip delivery is being applied
	installs    map[installKey]int // first install tick per (id, exchange)

	ran atomic.Bool
}

// Build compiles profile p at n exchanges linked by a gossip link with
// the given propagation delay: a spec admitted at tick T is
// re-requested at every other exchange at tick T+delay, and 0 relays
// within the same tick. Exchange e runs a copy of p with topology seed
// Seed+e; exchanges other than 0 drop p's mitigate events, the signals
// the gossip link carries. The link carries no withdrawal, so for
// n > 1 a profile with a withdraw event is rejected: the other
// exchanges would keep dropping until the TTL ran out. p itself is
// left unchanged. The exchanges' controllers are not subscribed until
// Run.
func Build(p *conformance.Profile, n, gossipDelayTicks int) (*Federation, error) {
	if n < 1 {
		return nil, fmt.Errorf("federation: need at least one exchange, got %d", n)
	}
	if gossipDelayTicks < 0 {
		return nil, fmt.Errorf("federation: negative gossip delay")
	}
	f := &Federation{
		exchanges:   make([]exchange, n),
		gossip:      newSpecGossip(n, gossipDelayTicks),
		lastControl: make([]int, n),
		suppress:    make([]int, n),
		installs:    make(map[installKey]int),
	}
	// A fresh slice: filtering a shallow copy in place would rewrite
	// p.Events.
	var remote []conformance.EventSpec
	for _, ev := range p.Events {
		if ev.Action == "withdraw" && n > 1 {
			return nil, fmt.Errorf("federation: profile %s withdraws a mitigation at tick %d, which the gossip link does not relay", p.Name, ev.Tick)
		}
		if ev.Action != "mitigate" {
			remote = append(remote, ev)
		}
	}
	for e := range f.exchanges {
		q := *p
		q.Topology.Seed += uint64(e)
		if e > 0 {
			q.Events = remote
		}
		x, cfg, err := conformance.Compile(&q)
		if err != nil {
			return nil, fmt.Errorf("federation: exchange %d: %w", e, err)
		}
		if x.Mitigations == nil {
			return nil, fmt.Errorf("federation: profile %s runs no mitigation controller to gossip from", p.Name)
		}
		f.exchanges[e] = exchange{IXP: x, Cfg: cfg}
		f.lastControl[e] = -1
	}
	return f, nil
}

// Run drives every exchange's engine for the configured ticks and
// returns the consolidated report. It is single-use, like the engines
// it builds. On an exchange error the surviving exchanges finish their
// run and the partial report is returned alongside the error.
func (f *Federation) Run() (*Report, error) {
	if !f.ran.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("federation: Run is single-use; build a new Federation")
	}
	pool := fabric.NewPool(0)
	defer pool.Close()
	n := len(f.exchanges)
	for i := range f.exchanges {
		i := i
		f.exchanges[i].IXP.Mitigations.Subscribe(func(ev mitctl.Event) { f.onEvent(i, ev) })
	}
	f.barrier = newTickBarrier(n, f.deliverDue)

	series := make([][]engine.VictimSeries, n)
	errs := make([]error, n)
	flows := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer f.barrier.leave()
			cfg := f.exchanges[i].Cfg
			cfg.Driver = &countingDriver{inner: cfg.Driver, flows: &flows[i]}
			cfg.Events = f.withBarrier(i, cfg.Events)
			cfg.Pool = pool
			series[i], errs[i] = engine.New(cfg).Run()
		}(i)
	}
	wg.Wait()

	var err error
	for i, e := range errs {
		if e != nil {
			err = fmt.Errorf("federation: exchange %s: %w", exchangeName(i), e)
			break
		}
	}
	return f.buildReport(series, flows), err
}

// withBarrier appends exchange ex's per-tick federation hook to its own
// events, so the hook runs last before each ControlTick: it records the
// tick and waits at the barrier. No exchange advances its clock past
// tick T until every exchange has finished T's events, which is also
// when due gossip is injected.
func (f *Federation) withBarrier(ex int, events []engine.Event) []engine.Event {
	ticks := f.exchanges[ex].Cfg.Ticks
	out := append(make([]engine.Event, 0, len(events)+ticks), events...)
	for tick := 0; tick < ticks; tick++ {
		out = append(out, engine.Event{Tick: tick, Name: "federation barrier", Do: func() error {
			f.noteControl(ex, tick)
			f.barrier.await(tick)
			return nil
		}})
	}
	return out
}

// noteControl records that exchange ex entered ControlTick(tick) — the
// anchor the gossip link derives origin and install ticks from.
func (f *Federation) noteControl(ex, tick int) {
	f.mu.Lock()
	f.lastControl[ex] = tick
	f.mu.Unlock()
}

// onEvent is the per-exchange controller subscription. Admissions and
// refreshes of locally signaled specs enter the gossip link; installs
// are stamped with the exchange's current control tick so the report
// can measure propagation.
func (f *Federation) onEvent(ex int, ev mitctl.Event) {
	switch ev.Type {
	case mitctl.EventValidated, mitctl.EventRefreshed:
		if ev.Mitigation.Origin != "" {
			// Relayed from another exchange — never re-gossiped, or two
			// exchanges would refresh each other's TTL forever.
			return
		}
		f.mu.Lock()
		suppressed := f.suppress[ex] > 0
		originTick := f.lastControl[ex] + 1
		f.mu.Unlock()
		if suppressed {
			// A relayed request refreshing a spec this exchange also
			// signaled locally: the stored spec has no Origin, but the
			// trigger was remote, so it must not re-enter the link.
			return
		}
		f.gossip.enqueue(ex, originTick, ev.Mitigation.Spec)
	case mitctl.EventInstalled:
		f.mu.Lock()
		k := installKey{ev.Mitigation.ID, ex}
		if _, ok := f.installs[k]; !ok {
			f.installs[k] = f.lastControl[ex]
		}
		f.mu.Unlock()
	}
}

// deliverDue runs under the tick barrier when every exchange has
// arrived at round tick: it re-requests each due gossiped spec at every
// exchange other than its origin. Each target applies its own
// admission and IRR validation; rejections are recorded per exchange in
// the signal's report entry.
func (f *Federation) deliverDue(tick int) {
	for _, g := range f.gossip.due(tick) {
		for j := range f.exchanges {
			if j == g.origin {
				continue
			}
			spec := g.spec
			spec.Origin = exchangeName(g.origin)
			f.mu.Lock()
			f.suppress[j]++
			f.mu.Unlock()
			_, err := f.exchanges[j].IXP.RequestMitigation(spec)
			f.mu.Lock()
			f.suppress[j]--
			f.mu.Unlock()
			g.sig.deliveries = append(g.sig.deliveries, delivery{ex: j, err: err})
		}
	}
}

// countingDriver wraps an exchange's driver to count offered flows —
// the per-exchange and federation-wide OfferedFlows of the Report. It
// stays because the engine returns rates, never flow counts.
type countingDriver struct {
	inner engine.Driver
	flows *int64
}

func (d *countingDriver) Victims() []engine.VictimSpec { return d.inner.Victims() }

func (d *countingDriver) AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	base := len(dst)
	out := d.inner.AppendOffers(v, dst, tick, dt)
	atomic.AddInt64(d.flows, int64(len(out)-base))
	return out
}

// Package federation composes several ixp.IXP exchanges into one
// multi-IXP deployment: the operational reality the paper's Section 6
// points at when it argues advanced blackholing only pays off once
// mitigation is coordinated across the exchanges an attack enters
// through.
//
// A Federation instantiates N exchanges — shared victims, per-exchange
// member topology, cross-IXP peers whose announcements appear at
// several exchanges — and drives them on one synchronized tick clock.
// Each exchange keeps its own engine pipeline: traffic generation and
// control on a spine goroutine, monitoring and reporting folded behind
// the engine's bounded free/work mailbox, so the fold side of any
// exchange can later move behind a socket without touching the
// composition. All pipelines draw from one shared fabric.Pool, so
// aggregate parallelism stays bounded by a single worker budget rather
// than N of them.
//
// The inter-IXP signaling plane is a SpecGossip link: mitctl.Spec
// requests admitted at one exchange are relayed to every other exchange
// after a configurable propagation delay in ticks. Content-derived
// mitigation IDs make remote re-requests idempotent, and each exchange
// still applies its own admission and IRR validation to relayed
// requests. Run returns a consolidated Report: per-exchange and
// aggregate offered/delivered/nulled series plus, for every gossiped
// spec, where and how fast it was installed.
package federation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/mitctl"
)

// Exchange is one member exchange of a federation: a fully wired IXP,
// the traffic driver that loads it, and any timed control-plane events
// local to it.
type Exchange struct {
	// Name identifies the exchange in gossip provenance and the
	// consolidated report. Empty falls back to the IXP's configured
	// name, then to "ixp<index>".
	Name string
	// IXP is the exchange itself. It must have the mitigation control
	// plane enabled (ixp.Config.EnableStellar) — the gossip link
	// subscribes to its controller.
	IXP *ixp.IXP
	// Driver generates the exchange's per-victim traffic.
	Driver engine.Driver
	// Events are timed control-plane actions on this exchange's spine.
	Events []engine.Event
}

// Config assembles a Federation.
type Config struct {
	Exchanges []Exchange
	// Ticks is the length of the shared clock in one-second ticks.
	Ticks int
	// GossipDelayTicks is the inter-IXP propagation delay: a spec
	// admitted at tick T is re-requested at every other exchange at
	// tick T+delay. 0 relays within the same tick.
	GossipDelayTicks int
}

// tickSec is the shared clock's tick length in seconds. Every
// exchange's engine runs with the engine's default mailbox depth and
// active-peer threshold, on one fabric pool of GOMAXPROCS workers.
const tickSec = 1.0

// installKey identifies one (mitigation, exchange) install.
type installKey struct {
	id string
	ex int
}

// Federation is a set of exchanges wired to one clock and one gossip
// link. Build one with New, run it once with Run.
type Federation struct {
	cfg     Config
	names   []string
	gossip  *SpecGossip
	barrier *tickBarrier

	mu          sync.Mutex
	lastControl []int              // per exchange: latest control tick entered
	suppress    []int              // per exchange: >0 while a gossip delivery is being applied
	installs    map[installKey]int // first install tick per (id, exchange)

	ran atomic.Bool
}

// New validates the composition and wires the federation. The
// exchanges' controllers are not subscribed until Run.
func New(cfg Config) (*Federation, error) {
	if len(cfg.Exchanges) == 0 {
		return nil, fmt.Errorf("federation: no exchanges")
	}
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("federation: ticks must be positive")
	}
	if cfg.GossipDelayTicks < 0 {
		return nil, fmt.Errorf("federation: negative gossip delay")
	}
	names := make([]string, len(cfg.Exchanges))
	seen := make(map[string]bool, len(cfg.Exchanges))
	for i, ex := range cfg.Exchanges {
		if ex.IXP == nil {
			return nil, fmt.Errorf("federation: exchange %d has no IXP", i)
		}
		if ex.IXP.Mitigations == nil {
			return nil, fmt.Errorf("federation: exchange %d has no mitigation controller (EnableStellar)", i)
		}
		if ex.Driver == nil {
			return nil, fmt.Errorf("federation: exchange %d has no driver", i)
		}
		name := ex.Name
		if name == "" {
			name = ex.IXP.Name()
		}
		if name == "" {
			name = fmt.Sprintf("ixp%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("federation: duplicate exchange name %q", name)
		}
		seen[name] = true
		names[i] = name
	}
	f := &Federation{
		cfg:         cfg,
		names:       names,
		gossip:      newSpecGossip(len(cfg.Exchanges), cfg.GossipDelayTicks),
		lastControl: make([]int, len(cfg.Exchanges)),
		suppress:    make([]int, len(cfg.Exchanges)),
		installs:    make(map[installKey]int),
	}
	for i := range f.lastControl {
		f.lastControl[i] = -1
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
	n := len(f.cfg.Exchanges)
	for i := range f.cfg.Exchanges {
		i := i
		f.cfg.Exchanges[i].IXP.Mitigations.Subscribe(func(ev mitctl.Event) { f.onEvent(i, ev) })
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
			ex := f.cfg.Exchanges[i]
			eng := engine.New(engine.Config{
				Driver:       &countingDriver{inner: ex.Driver, flows: &flows[i]},
				Control:      ex.IXP,
				DataPlane:    ex.IXP,
				Events:       f.withBarrier(i, ex.Events),
				Ticks:        f.cfg.Ticks,
				Dt:           tickSec,
				MemberFilter: ex.IXP.MemberFilter(),
				Pool:         pool,
			})
			series[i], errs[i] = eng.Run()
		}(i)
	}
	wg.Wait()

	var err error
	for i, e := range errs {
		if e != nil {
			err = fmt.Errorf("federation: exchange %s: %w", f.names[i], e)
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
	out := append(make([]engine.Event, 0, len(events)+f.cfg.Ticks), events...)
	for tick := 0; tick < f.cfg.Ticks; tick++ {
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
		for j := range f.cfg.Exchanges {
			if j == g.origin {
				continue
			}
			spec := g.spec
			spec.Origin = f.names[g.origin]
			f.mu.Lock()
			f.suppress[j]++
			f.mu.Unlock()
			_, err := f.cfg.Exchanges[j].IXP.RequestMitigation(spec)
			f.mu.Lock()
			f.suppress[j]--
			f.mu.Unlock()
			g.sig.deliveries = append(g.sig.deliveries, delivery{ex: j, err: err})
		}
	}
}

// countingDriver wraps an exchange's driver to count offered flows —
// the per-exchange and federation-wide OfferedFlows of the Report. It
// stays because the engine returns rates, never flow counts. It
// forwards the optional SerialGenerator facet so wrapping never changes
// engine behaviour.
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

func (d *countingDriver) SerialGen() bool {
	if sg, ok := d.inner.(engine.SerialGenerator); ok {
		return sg.SerialGen()
	}
	return false
}

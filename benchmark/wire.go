package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/bgpsession"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

const (
	ixpASN = 6695
	// eventTickDt is the simulated time one event tick advances, the
	// millisecond cmd/ixpd's per-event control tick uses.
	eventTickDt = 0.001
	// opTimeout bounds one closed-loop wait; an op that misses it is a
	// failed op and ends the run.
	opTimeout = 5 * time.Second
	// Each session victim's share of the offer set the event tick
	// egresses: 88 attack flows and 8 web peers x 5 ports, 128 flows.
	attackFlows = 88
	webPeers    = 8
)

var (
	blackholeNH = netip.MustParseAddr("80.81.193.66")
	rsBGPID     = netip.MustParseAddr("80.81.192.1")
)

// wireShape sizes one wire workload.
type wireShape struct {
	members int
	// standingMitigations are community-signaled drop rules installed
	// from the non-session members before the sessions come up.
	standingMitigations int
	// standingPaths are plain /24 paths preloaded through
	// ixp.HandleWireUpdate from the non-session members.
	standingPaths int
	sessions      int
	// window is the number of UPDATEs one session keeps outstanding.
	window int
	// churn selects the route-churn loop over the signal loop.
	churn bool
}

// buildIXP assembles an exchange of n members with the production
// wiring: ixp.Build with the mitigation control plane. The change-queue
// pacing is lifted: 4.33 changes/s is the paper's policy constant,
// pinned by tests at the root, not a software cost this benchmark
// measures.
func buildIXP(n int, portBps float64, seed uint64) (*ixp.IXP, []*member.Member, error) {
	members := member.MakePopulation(member.PopulationConfig{
		N: n, HonoringFraction: 0.3, PortCapacityBps: portBps, Seed: seed,
	})
	x, err := ixp.Build(ixp.Config{
		ASN: ixpASN, BlackholeNextHop: blackholeNH, Members: members,
		EnableStellar: true, QueueRate: 1e6, QueueBurst: 1 << 20,
	})
	return x, members, err
}

// buildWireIXP assembles a wire workload's exchange and its standing
// state.
func buildWireIXP(sh wireShape, seed uint64) (*ixp.IXP, []*member.Member, error) {
	x, members, err := buildIXP(sh.members, 10e9, seed)
	if err != nil {
		return nil, nil, err
	}
	others := members[sh.sessions:]
	for i := 0; i < sh.standingMitigations; i++ {
		m := others[i%len(others)]
		host := netip.PrefixFrom(hostAddr(m, 1+i/len(others)), 32)
		spec := core.DropUDPSrcPort(uint16(1024 + i%97))
		if err := x.Announce(m.Name, host, nil, []core.RuleSpec{spec}); err != nil {
			return nil, nil, fmt.Errorf("standing mitigation %d: %w", i, err)
		}
	}
	x.ControlTick(0, 1)
	if got := len(x.Mitigations.Active()); got != sh.standingMitigations {
		return nil, nil, fmt.Errorf("standing mitigations: %d active, want %d (controller errors: %d)",
			got, sh.standingMitigations, x.Mitigations.ErrorCount())
	}
	for i, m := range others {
		x.Policy.IRR.Register(m.ASN, netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16))
	}
	for sent := 0; sent < sh.standingPaths; {
		idx := sent / churnBlock
		i, k := idx%len(others), idx/len(others)
		n := min(churnBlock, sh.standingPaths-sent)
		u := announceBlock(others[i], [2]byte{20, byte(i)}, k*churnBlock, n)
		if err := x.HandleWireUpdate(others[i].Name, u); err != nil {
			return nil, nil, fmt.Errorf("standing paths: %w", err)
		}
		sent += n
	}
	if rej := x.RS.Rejections(); len(rej) > 0 {
		return nil, nil, fmt.Errorf("standing state rejected: %s %s", rej[0].Prefix, rej[0].Reason)
	}
	return x, members, nil
}

// hostAddr is the n-th host address inside the member's own /24.
func hostAddr(m *member.Member, n int) netip.Addr {
	a := m.Prefixes[0].Addr().As4()
	a[3] = byte(n)
	return netip.AddrFrom4(a)
}

// churnBlock is the number of /24s one churn UPDATE carries.
const churnBlock = 10

func baseAttrs(m *member.Member) bgp.PathAttrs {
	return bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{m.ASN}}},
		NextHop: m.BGPID,
	}
}

// announceBlock has member m announce n consecutive /24s of the /16
// hi.0.0/16, from the first-th on.
func announceBlock(m *member.Member, hi [2]byte, first, n int) *bgp.Update {
	u := &bgp.Update{Attrs: baseAttrs(m), NLRI: make([]bgp.PathPrefix, n)}
	for t := range u.NLRI {
		u.NLRI[t].Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{hi[0], hi[1], byte(first + t), 0}), 24)
	}
	return u
}

// opKind says what a tracked UPDATE waits for.
type opKind uint8

const (
	opChurn    opKind = iota // its own AfterApply
	opAnnounce               // first egress dropping exactly the attack
	opWithdraw               // first egress forwarding it again
)

// opRec follows one UPDATE from the write to its completion. The RX
// line stamps rx and applied, the tick goroutine the tick fields.
type opRec struct {
	kind        opKind
	t0          int64
	rx, applied atomic.Int64
	// the event tick that completed a signal op
	tickStart, ctlEnd, end int64
}

// stampQueue is a FIFO of RX stamps owned by the RX line.
type stampQueue struct {
	buf  []int64
	head int
}

func (q *stampQueue) push(v int64) { q.buf = append(q.buf, v) }

func (q *stampQueue) pop() int64 {
	if q.head == len(q.buf) {
		return 0
	}
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// client is one member's BGP session as the load generator drives it:
// pre-marshaled UPDATEs written straight to the TCP connection, and
// the exports the route server owes the member read back by a
// bgpsession endpoint.
type client struct {
	m    *member.Member
	conn net.Conn
	sess *bgpsession.Session
	ran  chan error

	inflight chan *opRec // written UPDATEs not yet applied, in order
	done     chan *opRec // completed ops, back to the writer
	cur      atomic.Pointer[opRec]
	rxQ      stampQueue

	// signal loop: the victim's UPDATEs, its traffic, and the byte sums
	// the oracle expects at its port
	announce, withdraw              []byte
	attack                          *traffic.Attack
	web                             *traffic.WebService
	attackBytes, benignBytes, total float64

	// churn loop
	corpus
	next         int
	sentPrefixes int64
	recvPrefixes atomic.Int64
}

// wireStack is the production wire assembly around one exchange: a
// listen stage terminating member sessions over loopback TCP, the
// rsfeed stage applying them to the route server, and the event tick
// (control tick + egress over the offer set) that RSFeed.AfterApply
// wakes, as cmd/ixpd's per-event tick is.
type wireStack struct {
	x       *ixp.IXP
	window  int
	probe   bool
	pool    *fabric.Pool
	pipe    *bgppipe.Pipe
	clients []*client
	byName  map[string]*client
	offers  fabric.TickOffers
	flows   int

	rec      atomic.Pointer[recorder]
	curPeer  string // RX line only
	traceSeq atomic.Uint64

	wake     chan struct{}
	stop     chan struct{}
	tickExit chan struct{}

	rejects, errs, wrong atomic.Int64
	txMsgs, applied      atomic.Int64
	tx0, applied0        int64
	genNs                atomic.Int64
	ctlErrs0             int
}

// startWire brings the wire assembly up around x with one session per
// given member. traceable attaches the benchmark's own RX/TX handlers
// ahead of rsfeed; the end-to-end run leaves them out.
func startWire(x *ixp.IXP, sessionMembers []*member.Member, window int, traceable bool, seed uint64) (*wireStack, error) {
	s := &wireStack{
		x: x, window: window, probe: traceable,
		pool:     fabric.NewPool(0),
		byName:   make(map[string]*client),
		offers:   make(fabric.TickOffers),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		tickExit: make(chan struct{}),
		ctlErrs0: x.Mitigations.ErrorCount(),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.pool.Close()
		return nil, err
	}
	// A session counts as up once the server side announced it on the RX
	// line: from then on the listen stage routes exports to it.
	peerUp := make(chan string, len(sessionMembers))
	s.pipe = bgppipe.New(bgppipe.Options{})
	stages := []bgppipe.Stage{bgppipe.NewListen(ln, bgpsession.Config{LocalAS: ixpASN, BGPID: rsBGPID})}
	if traceable {
		stages = append(stages, probeStage{s})
	}
	stages = append(stages, &bgppipe.RSFeed{
		RS:         x.RS,
		OnPeerUp:   func(peer string, _ uint32, _ netip.Addr) { peerUp <- peer },
		PreUpdate:  func(peer string, _ *bgp.Update) { s.curPeer = peer },
		AfterApply: s.afterApply,
		OnReject:   func(routeserver.Rejection) { s.rejects.Add(1) },
		OnError:    func(string, error) { s.errs.Add(1) },
	})
	for _, st := range stages {
		if err == nil {
			err = s.pipe.Attach(st)
		}
	}
	rng := stats.NewRand(seed ^ 0x9e3779b97f4a7c15)
	peers := traffic.MakePeers(attackFlows)
	for i, m := range sessionMembers {
		var c *client
		if err == nil {
			c, err = s.newClient(m, i)
		}
		if err != nil {
			ln.Close()
			s.pool.Close()
			return nil, err
		}
		s.clients = append(s.clients, c)
		s.byName[m.Name] = c
		s.addVictim(c, peers, rng)
	}
	s.pipe.Start()
	go s.tickLoop()
	for _, c := range s.clients {
		if err := c.connect(ln.Addr().String()); err != nil {
			s.close()
			return nil, err
		}
	}
	timeout := time.After(opTimeout)
	for range s.clients {
		select {
		case <-peerUp:
		case <-timeout:
			s.close()
			return nil, errors.New("sessions not established")
		}
	}
	return s, nil
}

// probeStage is the benchmark's own pipe stage for the traced run: an
// RX handler ahead of rsfeed stamping each UPDATE's arrival on the RX
// line, and a TX handler counting the exports rsfeed emits.
type probeStage struct{ s *wireStack }

func (probeStage) Name() string { return "benchmark-probe" }
func (probeStage) Run() error   { return nil }
func (probeStage) Stop() error  { return nil }
func (p probeStage) Attach(pipe *bgppipe.Pipe) error {
	pipe.OnMsg(bgppipe.DirRX, func(m *bgppipe.Msg) bool {
		if m.Update() != nil {
			if c := p.s.byName[m.Peer]; c != nil {
				c.rxQ.push(nowNs())
			}
		}
		return true
	})
	pipe.OnMsg(bgppipe.DirTX, func(*bgppipe.Msg) bool {
		p.s.txMsgs.Add(1)
		return true
	})
	return nil
}

// newClient pre-builds member m's UPDATEs.
func (s *wireStack) newClient(m *member.Member, idx int) (*client, error) {
	c := &client{
		m:        m,
		ran:      make(chan error, 1),
		inflight: make(chan *opRec, s.window),
		done:     make(chan *opRec, s.window),
	}
	victim := []bgp.PathPrefix{{Prefix: netip.PrefixFrom(victimAddr(m), 32)}}
	sig, err := core.DropUDPSrcPort(traffic.VectorNTP.SrcPort).Encode()
	if err != nil {
		return nil, err
	}
	attrs := baseAttrs(m)
	attrs.ExtCommunities = []bgp.ExtCommunity{sig}
	if c.announce, err = bgp.Marshal(&bgp.Update{Attrs: attrs, NLRI: victim}, nil); err != nil {
		return nil, err
	}
	if c.withdraw, err = bgp.Marshal(&bgp.Update{Withdrawn: victim}, nil); err != nil {
		return nil, err
	}
	c.corpus, err = churnCorpus(s.x, m, idx)
	return c, err
}

// connect opens the member's session; the reading side counts the
// prefixes the route server exports to it.
func (c *client) connect(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.sess = bgpsession.New(conn, bgpsession.Config{LocalAS: c.m.ASN, BGPID: c.m.BGPID}, func(e bgpsession.Event) {
		if e.Update != nil {
			c.recvPrefixes.Add(int64(len(e.Update.AllAnnounced()) + len(e.Update.AllWithdrawn())))
		}
	})
	go func() { c.ran <- c.sess.Run() }()
	return nil
}

// corpus is a session's pre-marshaled churn UPDATEs: announce/withdraw
// pairs, four pairs of ten /24s and then one RTBH /32 pair, so one
// UPDATE in ten announces a blackhole. prefixes[i] counts the prefixes
// wire[i] carries.
type corpus struct {
	wire     [][]byte
	prefixes []int
}

// churnCorpus builds member m's corpus out of 30.idx.0.0/16, which it
// registers for the member in the exchange's IRR.
func churnCorpus(x *ixp.IXP, m *member.Member, idx int) (corpus, error) {
	var c corpus
	x.Policy.IRR.Register(m.ASN, netip.PrefixFrom(netip.AddrFrom4([4]byte{30, byte(idx), 0, 0}), 16))
	for p, block := 0, 0; p < 50; p++ {
		var ann, wd *bgp.Update
		if p%5 == 4 {
			host := []bgp.PathPrefix{{Prefix: netip.PrefixFrom(hostAddr(m, 100+p), 32)}}
			a := baseAttrs(m)
			a.Communities = []bgp.Community{bgp.CommunityBlackhole}
			ann, wd = &bgp.Update{Attrs: a, NLRI: host}, &bgp.Update{Withdrawn: host}
		} else {
			ann = announceBlock(m, [2]byte{30, byte(idx)}, block*churnBlock, churnBlock)
			wd = &bgp.Update{Withdrawn: ann.NLRI}
			block++
		}
		for _, u := range []*bgp.Update{ann, wd} {
			b, err := bgp.Marshal(u, nil)
			if err != nil {
				return c, err
			}
			c.wire = append(c.wire, b)
			c.prefixes = append(c.prefixes, len(u.NLRI)+len(u.Withdrawn))
		}
	}
	return c, nil
}

// addVictim adds the member's victim address to the offer set the event
// tick egresses: an NTP reflection attack the signaled rule drops and
// web traffic it must not touch. The expected byte sums are taken in
// offer order, the order the port's egress adds them in, so the oracle
// compares floats exactly.
func (s *wireStack) addVictim(c *client, peers []traffic.Peer, rng *stats.Rand) {
	capBps := c.m.PortCapacityBps
	c.attack, c.web = victimTraffic(c.m, peers, webPeers, 0.1*capBps, 0.01*capBps, rng)
	offers := c.web.AppendOffers(c.attack.AppendOffers(nil, 0, eventTickDt), 0, eventTickDt)
	for _, o := range offers {
		c.total += o.Bytes
		if o.Flow.Proto == netpkt.ProtoUDP {
			c.attackBytes += o.Bytes
		} else {
			c.benignBytes += o.Bytes
		}
	}
	s.offers[c.m.Name] = offers
	s.flows += len(offers)
}

// setRecorder switches span recording on or off. Switching off hands the
// recorder the message counts taken since it was switched on.
func (s *wireStack) setRecorder(rec *recorder) {
	if old := s.rec.Swap(rec); old != nil {
		old.count("bgppipe.tx_msgs", float64(s.txMsgs.Load()-s.tx0))
		old.count("routeserver.applied", float64(s.applied.Load()-s.applied0))
	}
	s.tx0, s.applied0 = s.txMsgs.Load(), s.applied.Load()
}

// afterApply runs on the RX line after each applied message: it
// completes the UPDATE's record and wakes the event tick.
func (s *wireStack) afterApply() {
	now := nowNs()
	if c := s.byName[s.curPeer]; c != nil {
		select {
		case op := <-c.inflight:
			if s.probe {
				op.rx.Store(c.rxQ.pop())
			}
			op.applied.Store(now)
			s.applied.Add(1)
			if op.kind == opChurn {
				c.done <- op
			}
		default:
		}
	}
	s.curPeer = ""
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func noSink(int, string) fabric.FlowVisitor { return nil }

// tickLoop is the event tick: one control tick and one egress pass over
// the offer set per wake-up, then the check whether a waiting signal
// took effect.
func (s *wireStack) tickLoop() {
	defer close(s.tickExit)
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		start := nowNs()
		s.x.ControlTick(0, eventTickDt)
		ctl := nowNs()
		reports, err := s.x.EgressTick(s.pool, s.offers, eventTickDt, noSink)
		end := nowNs()
		if err != nil {
			s.errs.Add(1)
			continue
		}
		if rec := s.rec.Load(); rec != nil {
			tr := s.traceSeq.Add(1)
			rec.add(tr, 0, "ixp", "control_tick", start, ctl)
			rec.add(tr, 0, "ixp", "egress_tick", ctl, end)
			rec.count("fabric.flows", float64(s.flows))
		}
		for _, c := range s.clients {
			op := c.cur.Load()
			if op == nil {
				continue
			}
			res := reports[c.m.Name].Result
			var state opKind
			switch {
			case res.RuleDroppedBytes == c.attackBytes && res.DeliveredBytes == c.benignBytes:
				state = opAnnounce
			case res.RuleDroppedBytes == 0 && res.DeliveredBytes == c.total:
				state = opWithdraw
			default:
				s.wrong.Add(1)
				continue
			}
			if state == op.kind {
				op.tickStart, op.ctlEnd, op.end = start, ctl, end
				c.cur.Store(nil)
				c.done <- op
			}
		}
		s.genNs.Add(nowNs() - end)
	}
}

var errOpTimeout = errors.New("operation timed out")

// run drives every session for about d, through the churn loop or the
// signal loop, and returns what completed.
func (s *wireStack) run(d time.Duration, churn bool) (segment, error) {
	deadline := time.Now().Add(d)
	gen0 := s.genNs.Load()
	segs := make([]segment, len(s.clients))
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			if churn {
				segs[i], errs[i] = c.churnLoop(s, deadline)
			} else {
				segs[i], errs[i] = c.signalLoop(s, deadline)
			}
		}(i, c)
	}
	wg.Wait()
	out := segment{wall: time.Since(t0), generatorNs: float64(s.genNs.Load() - gen0)}
	for _, sg := range segs {
		out.ops += sg.ops
		out.attempted += sg.attempted
		out.failed += sg.failed
		out.latencies = append(out.latencies, sg.latencies...)
	}
	return out, errors.Join(errs...)
}

// signalLoop is the closed loop of wire_signal, one op outstanding:
// announce, wait for the first dropping egress, withdraw, wait for the
// first forwarding egress.
func (c *client) signalLoop(s *wireStack, deadline time.Time) (segment, error) {
	var sg segment
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	for time.Now().Before(deadline) {
		sg.attempted++
		ann, err := c.signal(s, opAnnounce, c.announce, timer)
		if err == nil {
			_, err = c.signal(s, opWithdraw, c.withdraw, timer)
		}
		if err != nil {
			sg.failed++
			return sg, fmt.Errorf("%s: signal cycle: %w", c.m.Name, err)
		}
		sg.ops++
		sg.latencies = append(sg.latencies, float64(ann.end-ann.t0))
		s.traceCycle(ann)
	}
	return sg, nil
}

func (c *client) signal(s *wireStack, kind opKind, wire []byte, timer *time.Timer) (*opRec, error) {
	g0 := nowNs()
	op := &opRec{kind: kind}
	c.cur.Store(op)
	c.inflight <- op
	op.t0 = nowNs()
	if _, err := c.conn.Write(wire); err != nil {
		return nil, err
	}
	c.sentPrefixes++
	s.genNs.Add(nowNs() - g0)
	timer.Reset(opTimeout)
	select {
	case got := <-c.done:
		return got, nil
	case <-timer.C:
		return nil, errOpTimeout
	}
}

// traceCycle records the span chain of one signal-to-drop: the five
// spans partition [write, return of the first dropping egress], so
// their sum is the cycle's latency. A stamp the RX line has not
// written yet (the serving tick can overtake AfterApply) is clamped to
// the serving tick's start.
func (s *wireStack) traceCycle(op *opRec) {
	rec := s.rec.Load()
	if rec == nil {
		return
	}
	clamp := func(v, lo, hi int64) int64 {
		if v == 0 || v > hi {
			return hi
		}
		return max(v, lo)
	}
	rx := clamp(op.rx.Load(), op.t0, op.tickStart)
	applied := clamp(op.applied.Load(), rx, op.tickStart)
	tr := s.traceSeq.Add(1)
	root := rec.add(tr, 0, "bench", "signal_to_drop", op.t0, op.end)
	rec.add(tr, root, "bgppipe", "rx", op.t0, rx)
	rec.add(tr, root, "routeserver", "apply", rx, applied)
	rec.add(tr, root, "ixp", "handoff", applied, op.tickStart)
	rec.add(tr, root, "mitctl", "process", op.tickStart, op.ctlEnd)
	rec.add(tr, root, "fabric", "egress", op.ctlEnd, op.end)
}

// churnLoop is the windowed loop of route_churn: announce/withdraw
// pairs with up to window UPDATEs outstanding, each completed by its
// own AfterApply. It always ends on a withdraw, so the RIB returns to
// its standing size.
func (c *client) churnLoop(s *wireStack, deadline time.Time) (segment, error) {
	var sg segment
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	rec := s.rec.Load()
	outstanding := 0
	collect := func(block bool) error {
		for outstanding > 0 {
			var op *opRec
			if block {
				timer.Reset(opTimeout)
				select {
				case op = <-c.done:
				case <-timer.C:
					sg.failed += outstanding
					return fmt.Errorf("%s: churn: %w", c.m.Name, errOpTimeout)
				}
			} else {
				select {
				case op = <-c.done:
				default:
					return nil
				}
			}
			outstanding--
			applied := op.applied.Load()
			sg.ops++
			sg.latencies = append(sg.latencies, float64(applied-op.t0))
			if rec != nil {
				tr := s.traceSeq.Add(1)
				rx := op.rx.Load()
				root := rec.add(tr, 0, "bench", "update_applied", op.t0, applied)
				rec.add(tr, root, "bgppipe", "rx", op.t0, rx)
				rec.add(tr, root, "routeserver", "apply", rx, applied)
			}
			if block && outstanding < s.window {
				return nil
			}
		}
		return nil
	}
	for c.next%2 == 1 || time.Now().Before(deadline) {
		if outstanding == s.window {
			if err := collect(true); err != nil {
				return sg, err
			}
		}
		g0 := nowNs()
		i := c.next % len(c.wire)
		op := &opRec{kind: opChurn}
		c.inflight <- op
		op.t0 = nowNs()
		if _, err := c.conn.Write(c.wire[i]); err != nil {
			sg.failed++
			return sg, err
		}
		sg.attempted++
		outstanding++
		c.sentPrefixes += int64(c.prefixes[i])
		c.next++
		s.genNs.Add(nowNs() - g0)
		if err := collect(false); err != nil {
			return sg, err
		}
	}
	for outstanding > 0 {
		if err := collect(true); err != nil {
			return sg, err
		}
	}
	return sg, nil
}

// finish is the end-of-run oracle: nothing was rejected or errored,
// the controller logged no new error, every egress the event tick saw
// either dropped exactly the attack or forwarded everything, each
// session received the exports the other sessions' UPDATEs owe it, and
// the RIB is back at its standing size.
func (s *wireStack) finish(standingPaths int) error {
	var problems []error
	if n := s.rejects.Load(); n > 0 {
		problems = append(problems, fmt.Errorf("%d import rejections", n))
	}
	if n := s.errs.Load(); n > 0 {
		problems = append(problems, fmt.Errorf("%d apply or egress errors", n))
	}
	if n := s.wrong.Load(); n > 0 {
		problems = append(problems, fmt.Errorf("%d egress ticks dropped or delivered the wrong bytes", n))
	}
	if n := s.x.Mitigations.ErrorCount() - s.ctlErrs0; n != 0 {
		problems = append(problems, fmt.Errorf("%d new controller errors", n))
	}
	var sent int64
	for _, c := range s.clients {
		sent += c.sentPrefixes
	}
	deadline := time.Now().Add(opTimeout)
	for _, c := range s.clients {
		want := sent - c.sentPrefixes
		for c.recvPrefixes.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := c.recvPrefixes.Load(); got != want {
			problems = append(problems, fmt.Errorf("%s received %d exported prefixes, want %d", c.m.Name, got, want))
		}
	}
	if got := s.x.RS.Table().Len(); got != standingPaths {
		problems = append(problems, fmt.Errorf("RIB holds %d paths, want the standing %d", got, standingPaths))
	}
	return errors.Join(problems...)
}

// close tears the assembly down and waits for every goroutine it
// started.
func (s *wireStack) close() {
	for _, c := range s.clients {
		if c.sess != nil {
			_ = c.sess.Close()
			<-c.ran
		}
	}
	s.pipe.Stop()
	_ = s.pipe.Wait()
	close(s.stop)
	<-s.tickExit
	s.pool.Close()
}

package bgppipe

import (
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgpsession"
	"stellar/internal/routeserver"
)

// TestSendAfterStopReturnsErrClosed is the regression test for the
// stopped-pipe send: a stage emitting onto a retired line must get
// ErrClosed promptly, not block forever on the bounded channel.
func TestSendAfterStopReturnsErrClosed(t *testing.T) {
	p := New(Options{Buffer: 1})
	p.Start()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Two sends: even with Buffer 1 neither may block.
		for i := 0; i < 2; i++ {
			if err := p.Send(DirRX, &Msg{BGP: &bgp.Keepalive{}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Send on stopped pipe = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send on stopped pipe blocked")
	}
	if err := p.Send(DirTX, &Msg{BGP: &bgp.Keepalive{}}); err != ErrClosed {
		t.Fatalf("TX Send on stopped pipe = %v, want ErrClosed", err)
	}
}

// TestSendDuringShutdownNeverPanics hammers Send concurrently with the
// pipe's retirement; the old close(chan)-based shutdown panicked here.
func TestSendDuringShutdownNeverPanics(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := New(Options{Buffer: 2})
		p.OnMsg(DirRX, func(m *Msg) bool { return true })
		p.Attach(&srcStage{n: 5})
		p.Start()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if p.Send(DirRX, &Msg{BGP: &bgp.Keepalive{}}) == ErrClosed {
						return
					}
				}
			}()
		}
		p.Stop()
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestReinjectOrdering pins Reinject semantics: a reinjected message is
// processed by the full handler chain after the in-flight message, is
// marked Reinjected, and filters skipping Reinjected messages never
// re-duplicate a duplicate.
func TestReinjectOrdering(t *testing.T) {
	p := New(Options{Buffer: 8})
	var mu sync.Mutex
	var seen []string
	// Handler 1: duplicate every original keepalive once.
	p.OnMsg(DirRX, func(m *Msg) bool {
		if !m.Reinjected {
			p.Reinject(DirRX, &Msg{Peer: m.Peer, BGP: m.BGP})
		}
		return true
	})
	// Handler 2: record arrival order.
	p.OnMsg(DirRX, func(m *Msg) bool {
		mu.Lock()
		tag := m.Peer
		if m.Reinjected {
			tag += "+dup"
		}
		seen = append(seen, tag)
		mu.Unlock()
		return true
	})
	p.Attach(&namedSrc{peers: []string{"a", "b"}})
	p.Start()
	p.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []string{"a", "a+dup", "b", "b+dup"}
	if len(seen) != len(want) {
		t.Fatalf("seen %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("order %v, want %v", seen, want)
		}
	}
}

// namedSrc pushes one keepalive per listed peer.
type namedSrc struct {
	peers []string
	pipe  *Pipe
}

func (s *namedSrc) Name() string         { return "named-src" }
func (s *namedSrc) Attach(p *Pipe) error { s.pipe = p; return nil }
func (s *namedSrc) Stop() error          { return nil }
func (s *namedSrc) Run() error {
	for _, peer := range s.peers {
		if err := s.pipe.Send(DirRX, &Msg{Peer: peer, BGP: &bgp.Keepalive{}}); err != nil {
			return err
		}
	}
	return nil
}

// TestShutdownGoroutineLeaks runs full pipe lifecycles (including a live
// TCP session on a listen stage) and checks the goroutine count returns
// to its baseline — the shutdown paths leak nothing.
func TestShutdownGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		rs := routeserver.New(routeserver.Config{ASN: 6695})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		server := New(Options{})
		server.Attach(NewListen(ln, bgpsession.Config{
			LocalAS: 6695, BGPID: netip.MustParseAddr("80.81.192.1"),
		}))
		server.Attach(&RSFeed{RS: rs})
		server.Start()
		client := dialMember(t, ln.Addr().String(), 64512, "10.0.0.12")
		client.sess.Close()
		server.Stop()
		if err := server.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Session goroutines wind down asynchronously after Wait; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after shutdown\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

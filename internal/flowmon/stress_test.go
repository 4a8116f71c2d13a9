package flowmon

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentObserveAndRead hammers the collector from GOMAXPROCS
// writer goroutines (writer w observes through Shard(w))
// while readers sweep every accessor, then checks the totals balance.
// CI runs it under -race.
func TestConcurrentObserveAndRead(t *testing.T) {
	const (
		batches      = 64
		perBatch     = 200
		bins         = 12
		readerSweeps = 50
	)
	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	c := NewCollectorShards(1)

	var wantTotal float64
	batchesByWriter := make([][][]record, writers)
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for b := 0; b < batches; b++ {
			recs := randRecords(rng, perBatch, bins)
			for i := range recs {
				wantTotal += recs[i].Bytes
			}
			batchesByWriter[w] = append(batchesByWriter[w], recs)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, recs := range batchesByWriter[w] {
				observeFlows(c.Shard(w), recs)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < readerSweeps; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for bin := 0; bin < bins; bin++ {
					c.TotalBytes(bin)
					c.DstPortShares(bin)
					c.SrcPortShares(bin)
					c.PeerCount(bin, 100, anyMAC)
				}
				c.Bins()
				series(c)
				c.TopSrcPorts(5)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var got float64
	_, totals := series(c)
	for _, v := range totals {
		got += v
	}
	if diff := wantTotal - got; diff > wantTotal*1e-9 || diff < -wantTotal*1e-9 {
		t.Fatalf("total bytes: got %v, want %v", got, wantTotal)
	}
}

// TestConcurrentShardWriters drives the write handle directly from
// several workers at once, each through its own worker index, with
// concurrent reads.
func TestConcurrentShardWriters(t *testing.T) {
	c := NewCollectorShards(1)
	var wg sync.WaitGroup
	var wantTotal float64
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			recs := randRecords(rng, 5000, 8)
			var sum float64
			sh := c.Shard(w)
			for i := range recs {
				sh.ObserveFlow(recs[i].Bin, &recs[i].Key, recs[i].Bytes)
				sum += recs[i].Bytes
			}
			mu.Lock()
			wantTotal += sum
			mu.Unlock()
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				c.TopSrcPorts(3)
				c.PeerCount(0, 0, anyMAC)
			}
		}
	}()
	wg.Wait()
	close(done)

	var got float64
	_, totals := series(c)
	for _, v := range totals {
		got += v
	}
	if diff := wantTotal - got; diff > wantTotal*1e-9 || diff < -wantTotal*1e-9 {
		t.Fatalf("total bytes: got %v, want %v", got, wantTotal)
	}
}

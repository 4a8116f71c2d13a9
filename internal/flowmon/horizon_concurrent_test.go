package flowmon

import (
	"math/rand"
	"sync"
	"testing"

	"stellar/internal/fabric"
)

// TestMergeHorizonUnderConcurrentPoolObservers reproduces the engine's
// spine/fold overlap on the collector alone: pool workers observe one
// tick's records concurrently through the collector's write handle,
// while a fold goroutine, lagging a couple of ticks behind the writers,
// advances the merge horizon (retiring old bins) and reads the
// accessors — the retire path and the observe path overlap the whole
// run. Under -race
// this pins the locking; the final comparison against the MapCollector
// baseline pins the aggregates. Byte sums here are integral, so the
// nondeterministic batch placement cannot smear the totals past the
// tolerance.
func TestMergeHorizonUnderConcurrentPoolObservers(t *testing.T) {
	const (
		ticks   = 30
		perTick = 400
		lag     = 2 // fold trails the writers by this many ticks
		chunk   = 50
	)
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		byTick := make([][]record, ticks)
		base := NewMapCollector()
		for tk := range byTick {
			recs := randRecords(rng, perTick, 1)
			for i := range recs {
				recs[i].Bin = tk
			}
			byTick[tk] = recs
			base.ObserveAll(recs)
		}

		c := NewCollectorShards(1)
		pool := fabric.NewPool(4)
		folded := make(chan int, ticks)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the fold side: horizon advance + accessor reads
			defer wg.Done()
			for tk := range folded {
				c.SetMergeHorizon(tk)
				_ = c.TotalBytes(tk)
				_ = c.PeerCount(tk, 0, anyMAC)
				_ = c.SrcPortShares(tk)
				_ = c.Bins()
			}
		}()
		for tk := 0; tk < ticks; tk++ {
			recs := byTick[tk]
			n := (len(recs) + chunk - 1) / chunk
			pool.Run(n, func(w, i int) {
				lo, hi := i*chunk, (i+1)*chunk
				if hi > len(recs) {
					hi = len(recs)
				}
				observeFlows(c.Shard(w), recs[lo:hi])
			})
			// The tick's writers are done; hand the lagged tick to the
			// fold goroutine, which reads it while the next tick's
			// writers are already observing — the engine overlap.
			if tk >= lag {
				folded <- tk - lag
			}
		}
		close(folded)
		wg.Wait()
		pool.Close()

		c.SetMergeHorizon(int(^uint(0) >> 1))
		compareCollectors(t, base, c, 1e-9)
	}
}

package flowmon

// PeerWindow exports peerWindow to the engine-driven retention test in
// package flowmon_test.
const PeerWindow = peerWindow

// PeerDetailBins counts the bins whose per-peer counters c holds.
func PeerDetailBins(c *Collector) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.st.hot {
		if c.st.hot[i].used {
			n++
		}
	}
	return n
}

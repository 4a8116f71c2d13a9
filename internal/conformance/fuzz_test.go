package conformance

import (
	"io/fs"
	"testing"
)

// FuzzProfileDecode hammers the profile decoder with mutated JSON. The
// shipped profiles seed the corpus so mutations start from realistic
// documents. The decoder must never panic, anything it accepts must
// re-validate cleanly (Decode validates, so acceptance implies validity —
// the invariant checked here is that a decoded profile stays internally
// consistent when validated again), and an accepted profile small enough
// to run cheaply must run without panicking.
func FuzzProfileDecode(f *testing.F) {
	names, err := fs.Glob(profilesFS, "profiles/*.json")
	if err != nil || len(names) == 0 {
		f.Fatalf("seed corpus: %v, %d profiles", err, len(names))
	}
	for _, name := range names {
		data, err := fs.ReadFile(profilesFS, name)
		if err != nil {
			f.Fatalf("seed corpus: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`not json`))
	// Faults-section edge shapes: mutations start from near-valid chaos
	// documents, not only from the shipped (valid) fault profiles.
	f.Add([]byte(`{"name":"f","faults":{"seed":1,"injections":[]}}`))
	f.Add([]byte(`{"name":"f","faults":{"injections":[{"kind":"tcam_squeeze","from":0,"to":1,"leave_l34":0}]}}`))
	f.Add([]byte(`{"name":"f","faults":{"injections":[{"kind":"wire_delay","from":0,"to":1,"delay_msgs":-1}]}}`))
	f.Add([]byte(`{"name":"f","faults":{"injections":[{"kind":"session_flap","from":0,"to":1,"member":99,"prob":1.5}]}}`))
	// A peer range whose end overflows int: From+Count wraps negative.
	f.Add([]byte(`{"name":"p","topology":{"members":4},"run":{"ticks":1},"victims":[{"member":0,"sources":[{"kind":"web","rate_bps":1,"peers":{"from":9223372036854775807,"count":1}}]}],"expect":[{"kind":"offered_bps","from":0,"to":1,"min":0}]}`))
	// A match port outside uint16: -1 is fabric.AnyPort.
	f.Add([]byte(`{"name":"m","topology":{"members":2},"run":{"ticks":1},"victims":[{"member":0}],"events":[{"tick":0,"action":"mitigate","match":{"proto":"udp","src_port":-1},"effect":"drop"}],"expect":[{"kind":"offered_bps","from":0,"to":1,"min":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if p.Name == "" {
			t.Fatalf("decoder accepted a profile without a name")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Decode accepted a profile Validate rejects: %v", err)
		}
		// A small accepted profile also runs: acceptance must mean the
		// runner compiles and executes it without panicking (it may still
		// fail with an error, e.g. a rejected announcement).
		if p.Topology.Members <= 16 && p.Run.Ticks <= 4 {
			_, _ = Run(p)
		}
	})
}

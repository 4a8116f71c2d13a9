package bgp

import (
	"bytes"
	"net/netip"
	"testing"
)

// fuzzOptions are the ADD-PATH combinations a session can negotiate.
var fuzzOptions = []*Options{
	nil,
	{AddPathIPv4: true},
	{AddPathIPv6: true},
	{AddPathIPv4: true, AddPathIPv6: true},
}

// FuzzUnmarshal throws arbitrary bytes at the codec every session runs.
// Decoding must never panic, and whatever decodes must re-marshal and
// decode again to the same bytes, under every ADD-PATH Options
// combination. With flowSpec set, the same contract holds for a
// FlowSpec NLRI through UnmarshalFlowSpec and (*FlowSpec).Marshal.
func FuzzUnmarshal(f *testing.F) {
	update := &Update{
		Attrs:     attrsForTest(),
		NLRI:      []PathPrefix{{Prefix: pfx24}, {Prefix: pfx32}},
		Withdrawn: []PathPrefix{{Prefix: netip.MustParsePrefix("100.10.11.0/24")}},
	}
	for _, m := range []Message{update, NewOpen(64512, 90, rsID)} {
		wire, err := Marshal(m, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire, false)
	}
	fs, err := fsNTPDrop().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fs, true)

	f.Fuzz(func(t *testing.T, data []byte, flowSpec bool) {
		if flowSpec {
			fuzzFlowSpec(t, data)
			return
		}
		for _, opts := range fuzzOptions {
			m, n, err := Unmarshal(data, opts)
			if err != nil {
				continue
			}
			if n < headerLen || n > len(data) {
				t.Fatalf("opts %+v: consumed %d of %d bytes", opts, n, len(data))
			}
			wire, err := Marshal(m, opts)
			if err != nil {
				t.Fatalf("opts %+v: decoded %v does not re-marshal: %v", opts, m.Type(), err)
			}
			again, n, err := Unmarshal(wire, opts)
			if err != nil || n != len(wire) {
				t.Fatalf("opts %+v: re-marshaled %v does not decode (%d of %d bytes): %v", opts, m.Type(), n, len(wire), err)
			}
			rewire, err := Marshal(again, opts)
			if err != nil || !bytes.Equal(rewire, wire) {
				t.Fatalf("opts %+v: %v is not a marshal fixpoint (%v):\n got %x\nwant %x", opts, m.Type(), err, rewire, wire)
			}
		}
	})
}

// fuzzFlowSpec is FuzzUnmarshal's FlowSpec mode.
func fuzzFlowSpec(t *testing.T, data []byte) {
	fs, n, err := UnmarshalFlowSpec(data)
	if err != nil {
		return
	}
	if n <= 0 || n > len(data) {
		t.Fatalf("consumed %d of %d bytes", n, len(data))
	}
	wire, err := fs.Marshal()
	if err != nil {
		t.Fatalf("decoded %v does not re-marshal: %v", fs, err)
	}
	again, n, err := UnmarshalFlowSpec(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("re-marshaled %v does not decode (%d of %d bytes): %v", fs, n, len(wire), err)
	}
	rewire, err := again.Marshal()
	if err != nil || !bytes.Equal(rewire, wire) {
		t.Fatalf("%v is not a marshal fixpoint (%v):\n got %x\nwant %x", fs, err, rewire, wire)
	}
}

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current outputs")

// goldenDir holds the checked-in outputs at the root of the module.
const goldenDir = "../../testdata/golden"

// TestGoldenOutputs pins everything the lab prints — every figure and
// table at CI scale, both conformance reports and a federation run,
// each with its JSON — byte for byte. A change that moves a number in
// any of them fails here; one that means to regenerates the files with
// `go test ./cmd/stellar-lab -run TestGoldenOutputs -update` and the
// diff shows in review.
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"all-small.txt", []string{"all", "-scale", "small"}},
		{"conformance.txt", []string{"conformance", "-json", "-"}},
		{"conformance-faults.txt", []string{"conformance", "-faults-only", "-json", "-"}},
		{"federation.txt", []string{"federation", "-exchanges", "4", "-gossip-delay", "2", "-json", "-"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(tc.args, &got); err != nil {
				t.Fatalf("%v: %v", tc.args, err)
			}
			path := filepath.Join(goldenDir, tc.file)
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%v: output differs from %s (%d bytes, want %d); regenerate with -update if the change is intended",
					tc.args, path, got.Len(), len(want))
			}
		})
	}
}

package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func genCSV(t *testing.T, args ...string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no output")
	}
	return lines
}

func TestHeaderAndRows(t *testing.T) {
	lines := genCSV(t, "-vector", "ntp", "-peers", "4", "-ticks", "5", "-rate", "1e8")
	if lines[0] != "tick,src_member,src_ip,proto,src_port,dst_port,bytes,packets" {
		t.Fatalf("header: %s", lines[0])
	}
	if len(lines) < 2 {
		t.Fatal("no data rows")
	}
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != 8 {
			t.Fatalf("row has %d fields: %s", len(f), l)
		}
		tick, err := strconv.Atoi(f[0])
		if err != nil || tick < 0 || tick >= 5 {
			t.Fatalf("bad tick in %s", l)
		}
		if b, err := strconv.ParseFloat(f[6], 64); err != nil || b <= 0 {
			t.Fatalf("bad bytes in %s", l)
		}
	}
}

func TestNTPSourcePort(t *testing.T) {
	lines := genCSV(t, "-vector", "ntp", "-peers", "2", "-ticks", "2", "-rate", "1e8")
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if f[4] != "123" {
			t.Fatalf("NTP amplification must source from port 123: %s", l)
		}
	}
}

func TestWebVector(t *testing.T) {
	lines := genCSV(t, "-vector", "web", "-peers", "3", "-ticks", "3", "-rate", "1e8")
	if len(lines) < 2 {
		t.Fatal("web workload emitted no flows")
	}
}

func TestDeterministicSeed(t *testing.T) {
	a := genCSV(t, "-vector", "dns", "-peers", "3", "-ticks", "4", "-seed", "7")
	b := genCSV(t, "-vector", "dns", "-peers", "3", "-ticks", "4", "-seed", "7")
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("same seed produced different output")
	}
	c := genCSV(t, "-vector", "dns", "-peers", "3", "-ticks", "4", "-seed", "8")
	if strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("different seed produced identical output")
	}
}

func TestStartTickDelaysAttack(t *testing.T) {
	lines := genCSV(t, "-vector", "memcached", "-peers", "2", "-ticks", "6", "-start", "3", "-rate", "1e8")
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		tick, _ := strconv.Atoi(f[0])
		if tick < 3 {
			t.Fatalf("attack traffic before start tick: %s", l)
		}
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-vector", "no-such-vector"}, &buf); err == nil {
		t.Fatal("unknown vector accepted")
	}
	if err := run([]string{"-target", "not-an-ip"}, &buf); err == nil {
		t.Fatal("bad target accepted")
	}
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestBadFlagsAreErrors: a flag value that cannot describe a workload
// is an error from run, never a panic, a NaN row or a header-only CSV.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-peers", "-3", "-ticks", "2"},
		{"-peers", "0", "-ticks", "2"},
		{"-rate", "NaN", "-peers", "2", "-ticks", "2"},
		{"-rate", "+Inf", "-peers", "2", "-ticks", "2"},
		{"-rate", "-1e8", "-peers", "2", "-ticks", "2"},
		{"-rate", "0", "-peers", "2", "-ticks", "2"},
		{"-ticks", "0", "-peers", "2"},
		{"-ticks", "-1", "-peers", "2"},
		{"-vector", "web", "-peers", "0", "-ticks", "2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(args, &buf); err == nil {
				t.Fatalf("accepted; wrote %q", buf.String())
			}
		})
	}
}

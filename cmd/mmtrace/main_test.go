package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/paging"
)

// TestProfileReplayCreditsBaseCases: every -profile replay, the clairvoyant
// one included, completes all of the trace's base cases, and the streamed
// replays print exactly what the materialized ones do.
func TestProfileReplayCreditsBaseCases(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "p.tsv")
	if err := os.WriteFile(prof, []byte("16\n32\n8\n64\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stats bytes.Buffer
	if err := run([]string{"-dim", "32", "-stats"}, &stats); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`base-cases=(\d+)`).FindStringSubmatch(stats.String())
	if m == nil {
		t.Fatalf("no base-case count in %q", stats.String())
	}
	want := "base-cases completed=" + m[1] + "\n"
	for _, name := range paging.ReplayNames() {
		var out bytes.Buffer
		if err := run([]string{"-dim", "32", "-profile", prof, "-policy", name}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasSuffix(out.String(), want) {
			t.Errorf("%s: %q does not end in %q", name, out.String(), want)
		}
		if name == paging.OPTReplayName {
			continue // needs the materialized trace
		}
		var streamed bytes.Buffer
		if err := run([]string{"-dim", "32", "-profile", prof, "-policy", name, "-stream"}, &streamed); err != nil {
			t.Fatalf("%s -stream: %v", name, err)
		}
		if streamed.String() != out.String() {
			t.Errorf("%s: streamed %q, materialized %q", name, streamed.String(), out.String())
		}
	}
}

// TestProfileFlags checks that -cpuprofile and -memprofile write non-empty
// profiles and leave the output byte-identical, and that an unwritable
// profile path fails before anything is printed.
func TestProfileFlags(t *testing.T) {
	args := []string{"-alg", "inplace", "-dim", "32", "-stats", "-lru", "16", "-opt"}
	var plain bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var profiled bytes.Buffer
	if err := run(append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...), &profiled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Errorf("profiling changed the output:\n--- plain ---\n%s\n--- profiled ---\n%s", plain.Bytes(), profiled.Bytes())
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil {
			t.Error(err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	var buf bytes.Buffer
	bad := filepath.Join(dir, "missing", "cpu.pprof")
	if err := run(append([]string{"-cpuprofile", bad}, args...), &buf); err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("unwritable -cpuprofile: err = %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("failed run printed %q", buf.String())
	}
}

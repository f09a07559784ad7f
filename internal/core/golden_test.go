package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// TestSeedTablesGolden regenerates every registered experiment table at the
// seed configuration (the one EXPERIMENTS.md and BENCH_baseline.json were
// produced with) and compares the concatenated TSV renderings against a
// committed golden file. This is the determinism contract made executable:
// any refactor of the trace pipeline, the paging kernels, or the engine
// must leave these bytes untouched. Regenerate intentionally with
//
//	go test ./internal/core/ -run TestSeedTablesGolden -update
func TestSeedTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full seed-config run; skipped under -short")
	}
	tables, err := runAll(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tbl := range tables {
		sb.WriteString(tbl.FormatTSV())
		sb.WriteByte('\n')
	}
	got := sb.String()

	golden := filepath.Join("testdata", "seed_tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		// Locate the first diverging table for a readable failure.
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("seed-config tables drifted at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("seed-config tables drifted in length: got %d lines, want %d", len(gotLines), len(wantLines))
	}
}

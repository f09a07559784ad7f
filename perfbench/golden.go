package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/core"
)

// defaultSeed is core.DefaultConfig's seed, the one the golden tables were
// produced at.
var defaultSeed = core.DefaultConfig().Seed

// goldenPath is the committed seed-config rendering of every table; the
// benchmark only reads it.
var goldenPath = filepath.Join("internal", "core", "testdata", "seed_tables.golden")

// e9Row1024 is E9's dim-1024 row at maxk 8, from the snapshot committed in
// BENCH_pr6.json (the golden stops at maxk 7, dim 512).
var e9Row1024 = []string{"1024", "1048576", "2396745", "100270080", "1", "8"}

// golden holds the seed tables split per experiment: each block is that
// table's FormatTSV text followed by the blank separator line.
type golden struct {
	blocks map[string]string
}

var tableHeader = regexp.MustCompile(`(?m)^# ([EA][0-9]+) — `)

func loadGolden() (*golden, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	text := string(data)
	locs := tableHeader.FindAllStringSubmatchIndex(text, -1)
	if len(locs) == 0 {
		return nil, fmt.Errorf("%s holds no tables", goldenPath)
	}
	g := &golden{blocks: map[string]string{}}
	for i, loc := range locs {
		end := len(text)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		g.blocks[text[loc[2]:loc[3]]] = text[loc[0]:end]
	}
	return g, nil
}

// matches reports whether t renders exactly as the golden table of its ID.
func (g *golden) matches(t *core.Table) bool {
	block, ok := g.blocks[t.ID]
	return ok && t.FormatTSV()+"\n" == block
}

// rows returns the golden table's header line and data rows, split on tabs.
func (g *golden) rows(id string) (header []string, rows [][]string) {
	lines := strings.Split(strings.TrimRight(g.blocks[id], "\n"), "\n")
	if len(lines) < 2 {
		return nil, nil
	}
	header = strings.Split(lines[1], "\t")
	for _, l := range lines[2:] {
		if !strings.HasPrefix(l, "#") {
			rows = append(rows, strings.Split(l, "\t"))
		}
	}
	return header, rows
}

// checkE9 checks an E9 table at maxk 8: its dim-32…512 rows equal the
// golden rows, and its dim-1024 row equals the committed snapshot.
func (b *bench) checkE9(t *core.Table) {
	header, want := b.golden.rows("E9")
	want = append(want, e9Row1024)
	b.check(t.ID == "E9" && equalRows([][]string{t.Header}, [][]string{header}), "E9 header %q, golden %q", t.Header, header)
	b.check(equalRows(t.Rows, want), "E9 rows %q, want %q", t.Rows, want)
}

func equalRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], "\t") != strings.Join(b[i], "\t") {
			return false
		}
	}
	return true
}

// renderTables is the byte image of a table list: what the golden file
// holds at the seed config, and what two runs at any seed must agree on.
func renderTables(tables []*core.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.FormatTSV())
		sb.WriteByte('\n')
	}
	return sb.String()
}

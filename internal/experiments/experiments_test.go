package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// micro is a fast test preset.
var micro = Scale{
	Name: "micro", Entities: 150, Side: 6, Days: 4, Detection: 0.15, Queries: 3,
	HashSweep: []int{1, 16, 64}, DefaultNH: 64, Seed: 1,
}

func checkTables(t *testing.T, tables []Table, err error, wantMin int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < wantMin {
		t.Fatalf("got %d tables, want ≥ %d", len(tables), wantMin)
	}
	for _, tb := range tables {
		if tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("empty table: %+v", tb)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("%s: row %v has %d cells, want %d", tb.Title, row, len(row), len(tb.Columns))
			}
		}
		out := tb.Render()
		if !strings.Contains(out, tb.Title) {
			t.Fatalf("Render missing title: %s", out)
		}
	}
}

func cell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tb.Title, row, col, tb.Rows[row][col])
	}
	return v
}

func TestFig71(t *testing.T) {
	tables, err := Fig71DataDistribution(micro)
	checkTables(t, tables, err, 4)
	// AjPI partner counts must not increase with level depth.
	for _, tb := range tables {
		if !strings.Contains(tb.Title, "entities forming") {
			continue
		}
		prev := 1e18
		for r := range tb.Rows {
			v := cell(t, tb, r, 1)
			if v > prev+1e-9 {
				t.Errorf("%s: partners grew with depth: %v after %v", tb.Title, v, prev)
			}
			prev = v
		}
		if cell(t, tb, 0, 1) <= 0 {
			t.Errorf("%s: no level-1 AjPIs at all", tb.Title)
		}
	}
}

func TestFig72(t *testing.T) {
	tables, err := Fig72ADMDistribution(micro)
	checkTables(t, tables, err, 2)
	// Low-degree bucket dominates (paper: "most entities bear low
	// association degrees").
	for _, tb := range tables {
		for r := range tb.Rows {
			low := cell(t, tb, r, 1)
			for c := 2; c < len(tb.Columns); c++ {
				if cell(t, tb, r, c) > low {
					t.Errorf("%s row %d: bucket %d exceeds the low bucket", tb.Title, r, c)
				}
			}
		}
	}
}

func TestFig73(t *testing.T) {
	tables, err := Fig73PEvsHashFunctions(micro)
	checkTables(t, tables, err, 2)
	for _, tb := range tables {
		// Measured pruned fraction must not collapse as nh grows: compare
		// last vs first with slack for small-scale noise.
		first := cell(t, tb, 0, 1)
		last := cell(t, tb, len(tb.Rows)-1, 1)
		if last < first-0.15 {
			t.Errorf("%s: pruning degraded with nh: %v -> %v", tb.Title, first, last)
		}
		// nh = 1 is one leaf holding everyone: the signatures prune nothing.
		if tb.Rows[0][0] != "1" || first != 0 {
			t.Errorf("%s: row %v, want nh = 1 with no signature pruning", tb.Title, tb.Rows[0])
		}
		for r := range tb.Rows {
			for c := 1; c <= 3; c++ {
				if v := cell(t, tb, r, c); v < 0 || v > 1 {
					t.Errorf("%s: fraction %v outside [0,1]", tb.Title, v)
				}
			}
			// On these populations the posting-driven search scores fewer
			// entities than Algorithm 2 reaches.
			if sig, all := cell(t, tb, r, 1), cell(t, tb, r, 3); all < sig {
				t.Errorf("%s row %d: with the cell index %v < signatures alone %v", tb.Title, r, all, sig)
			}
		}
	}
}

func TestFig74(t *testing.T) {
	sc := micro
	tables, err := Fig74DataCharacteristics(sc)
	checkTables(t, tables, err, 8)
	// All PE values lie in [0,1]. (Definition 5 subtracts k, so PE is not
	// comparable across k at a fixed population; no ordering is asserted.)
	for _, tb := range tables {
		for r := range tb.Rows {
			for c := 1; c <= 3; c++ {
				if v := cell(t, tb, r, c); v < 0 || v > 1 {
					t.Errorf("%s row %d col %d: PE %v out of range", tb.Title, r, c, v)
				}
			}
		}
	}
}

func TestFig75(t *testing.T) {
	tables, err := Fig75ADMParams(micro)
	checkTables(t, tables, err, 2)
}

func TestFig76(t *testing.T) {
	tables, err := Fig76MemorySize(micro, t.TempDir())
	checkTables(t, tables, err, 2)
	// Search time at full memory must not exceed time at 10% (with slack
	// for timing noise at micro scale).
	for _, tb := range tables {
		lowMem := cell(t, tb, 0, 3)
		fullMem := cell(t, tb, len(tb.Rows)-1, 3)
		if fullMem > lowMem*3+1 {
			t.Errorf("%s: full-memory search (%vms) much slower than low-memory (%vms)", tb.Title, fullMem, lowMem)
		}
	}
}

func TestFig77(t *testing.T) {
	tables, err := Fig77ResultSize(micro)
	checkTables(t, tables, err, 2)
	for _, tb := range tables {
		for r := range tb.Rows {
			hi := cell(t, tb, r, 2)   // minsig with more hash functions
			base := cell(t, tb, r, 3) // bitmap baseline
			if hi < base-0.25 {
				t.Errorf("%s row %d: MinSigTree pruned %v, baseline %v — index should win", tb.Title, r, hi, base)
			}
		}
	}
}

func TestFig78(t *testing.T) {
	tables, err := Fig78IndexingCost(micro)
	checkTables(t, tables, err, 2)
	for _, tb := range tables {
		// Index size grows with nh (hash tables dominate).
		if cell(t, tb, len(tb.Rows)-1, 2) < cell(t, tb, 0, 2) {
			t.Errorf("%s: index size shrank with nh", tb.Title)
		}
	}
}

func TestFig79(t *testing.T) {
	tables, err := Fig79UpdateCost(micro)
	checkTables(t, tables, err, 1)
}

func TestByName(t *testing.T) {
	if _, err := ByName("9.9", micro, t.TempDir()); err == nil {
		t.Error("unknown figure accepted")
	}
	tables, err := ByName("7.8", micro, t.TempDir())
	checkTables(t, tables, err, 2)
	if len(Names()) != 9 {
		t.Errorf("Names = %v", Names())
	}
}

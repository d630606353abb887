package experiment_test

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// saturationSwitch is the switch cost S of every committed grid CSV the
// node simulator produces: 6 cycles for the Figure 5 (cache-fault)
// family, 8 for the synchronization family.
var saturationSwitch = map[string]float64{
	"figure5":           6,
	"homogeneous-c8":    6,
	"homogeneous-c16":   6,
	"mixed-granularity": 6,
	"ablation-rounding": 6,
	"figure6":           8,
	"figure6a-cheap":    8,
	"combined":          8,
	"ablation-policy":   8,
	"ablation-alloc":    8,
	"ablation-dribble":  8,
}

// notNodeGrids are the committed CSVs that are not node-simulator grids
// with an R column: closed forms, the machine tier, the network fixed
// point and the cache and granularity studies.
var notNodeGrids = map[string]bool{
	"analytic": true, "cache-interference": true, "figure3": true, "figure4": true,
	"granularity": true, "managed-isa": true, "scaling": true,
}

// combinedCacheR is the cache-fault run length the combined experiment
// superposes on its swept synchronization run length.
const combinedCacheR = 32

// TestCommittedGridsRespectSaturation checks the saturation half of the
// Section 3.4 model against every committed simulated grid, running no
// simulation: each run of mean length R ends in a switch of S cycles,
// so no row's efficiency may exceed R/(R+S). For the combined
// experiment R is the superposed mean 1/(1/32 + 1/R). The bound allows
// 0.5% for the sampled run lengths' own mean; the committed grids reach
// at most 0.99996 of it. A switch charged short, or a useful cycle
// charged twice, shows here as a row above its bound once docs/data is
// regenerated.
func TestCommittedGridsRespectSaturation(t *testing.T) {
	const slack = 1.005
	dir := filepath.Join("..", "..", "docs", "data")
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		id := strings.TrimSuffix(filepath.Base(path), ".csv")
		if notNodeGrids[id] {
			continue
		}
		s, ok := saturationSwitch[id]
		if !ok {
			t.Errorf("%s: a committed CSV with no switch cost here; classify it", id)
			continue
		}
		rows := readCSV(t, path)
		col := columns(t, id, rows[0], "arch", "F", "R", "L", "efficiency")
		for _, row := range rows[1:] {
			r := parseFloat(t, id, row[col["R"]])
			if id == "combined" {
				r = 1 / (1.0/combinedCacheR + 1/r)
			}
			bound := r / (r + s)
			if eff := parseFloat(t, id, row[col["efficiency"]]); eff > bound*slack {
				t.Errorf("%s %s F=%s R=%s L=%s: efficiency %g exceeds the saturation bound %g (R/(R+S) with S=%g) by %.3f%%",
					id, row[col["arch"]], row[col["F"]], row[col["R"]], row[col["L"]], eff, bound, s, 100*(eff/bound-1))
			}
			checked++
		}
	}
	for id := range saturationSwitch {
		if _, err := os.Stat(filepath.Join(dir, id+".csv")); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if checked == 0 {
		t.Fatal("no rows checked")
	}
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(rows) < 2 {
		t.Fatalf("%s: no data rows", path)
	}
	return rows
}

// columns maps each wanted column name to its index in header.
func columns(t *testing.T, id string, header []string, want ...string) map[string]int {
	t.Helper()
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	for _, name := range want {
		if _, ok := col[name]; !ok {
			t.Fatalf("%s: no %q column in %v", id, name, header)
		}
	}
	return col
}

func parseFloat(t *testing.T, id, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return v
}

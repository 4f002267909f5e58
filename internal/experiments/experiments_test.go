package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1b", "fig2b", "fig3", "fig4", "fig5a", "fig5b", "fig8",
		"fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "tab6", "tab7"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, ok := Run("nope", TestOptions()); ok {
		t.Error("unknown id should not run")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "n")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a  bb", "1  2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 8}
	s := o.scaled(workload.ByName("lg-bfs"))
	if s.FootprintPages != workload.ByName("lg-bfs").FootprintPages/8 {
		t.Fatal("footprint not scaled")
	}
	if s.SegmentLen > s.FootprintPages {
		t.Fatal("segment length not clamped")
	}
	tiny := Options{Scale: 10000}.scaled(workload.ByName("tf-infer"))
	if tiny.FootprintPages < 64 || tiny.MainAccesses < 256 {
		t.Fatal("scaling floors not applied")
	}
}

// --- shape assertions on the cheap (scaled) experiment runs ---

func cell(t *testing.T, tb Table, row, col string) string {
	t.Helper()
	ci := -1
	for i, c := range tb.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("column %q missing in %s", col, tb.ID)
	}
	for _, r := range tb.Rows {
		if r[0] == row {
			return r[ci]
		}
	}
	t.Fatalf("row %q missing in %s", row, tb.ID)
	return ""
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscanf(s, &v); err != nil {
		t.Fatalf("cannot parse ratio %q: %v", s, err)
	}
	return v
}

func fmtSscanf(s string, v *float64) (int, error) {
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	n, err := sscan(s, v)
	return n, err
}

func TestFig1bShape(t *testing.T) {
	tb, _ := Run("fig1b", TestOptions())
	// Every device's measured bandwidth is within 10% of spec and below the
	// 64 GB/s fabric budget (the paper's motivating gap).
	for _, row := range tb[0].Rows {
		spec := parseRatio(t, row[2])
		meas := parseRatio(t, row[3])
		if meas < 0.85*spec || meas > 1.05*spec {
			t.Errorf("%s: measured %.1f vs spec %.1f", row[0], meas, spec)
		}
		if meas > 46.5 {
			t.Errorf("%s: exceeds Fig 1b's single-device ceiling", row[0])
		}
	}
}

func TestFig2bOrdering(t *testing.T) {
	tb, _ := Run("fig2b", TestOptions())
	var prev float64
	for i, row := range tb[0].Rows {
		v := parseRatio(t, strings.TrimSuffix(row[3], "µs"))
		if i > 0 && v <= prev {
			t.Fatalf("latency ordering violated at %s: %v <= %v", row[0], v, prev)
		}
		prev = v
	}
}

func TestFig4MultiPathWins(t *testing.T) {
	tb, _ := Run("fig4", TestOptions())
	sp := parseRatio(t, tb[0].Rows[1][3])
	if sp < 1.3 || sp > 4 {
		t.Fatalf("multi-path speedup %.2f outside plausible band", sp)
	}
}

func TestFig5aCrossover(t *testing.T) {
	tb, _ := Run("fig5a", TestOptions())
	rows := tb[0].Rows
	first, last := rows[0], rows[len(rows)-1]
	pms := func(s string) float64 { return parseRatio(t, strings.TrimSuffix(s, "ms")) }
	// Contiguous data: large units strictly faster than 4K.
	if pms(last[1]) >= pms(first[1]) {
		t.Fatal("large units should win for contiguous data")
	}
	// Fragmented data: large units strictly slower.
	if pms(last[3]) <= pms(first[3]) {
		t.Fatal("large units should lose for fragmented data")
	}
}

func TestTable6Shape(t *testing.T) {
	cells := Table6Data(TestOptions())
	if len(cells) != 17*3 {
		t.Fatalf("got %d cells, want 51", len(cells))
	}
	wins, losses := 0, 0
	maxSp := 0.0
	for _, c := range cells {
		sp := c.Speedup()
		if sp <= 0.2 || sp > 8 {
			t.Errorf("%s/%s speedup %.2f implausible", c.Workload, c.Backend, sp)
		}
		if sp >= 1 {
			wins++
		} else {
			losses++
		}
		if sp > maxSp {
			maxSp = sp
		}
	}
	// The paper: xDM wins in the vast majority of cells, with a few
	// suboptimal cases; max speedup is a small-integer factor.
	if wins < 40 {
		t.Errorf("xDM wins only %d/51 cells", wins)
	}
	if maxSp < 1.8 {
		t.Errorf("max speedup %.2f too small for Table VI's headline", maxSp)
	}
}

func TestFig16Monotonicity(t *testing.T) {
	norm, _ := Fig16Data(TestOptions(), 8)
	// All-friendly at the loosest SLOs must beat all-sensitive.
	lastRow := norm[len(norm)-1]
	firstRow := norm[0]
	if lastRow[len(lastRow)-1] <= firstRow[len(firstRow)-1]*0.9 {
		t.Fatalf("friendly share does not raise throughput: %v vs %v", lastRow, firstRow)
	}
}

func TestFig18Claims(t *testing.T) {
	tbs, _ := Run("fig18", TestOptions())
	sp := parseRatio(t, tbs[0].Rows[1][4])
	if sp < 2.3 || sp > 3.0 {
		t.Fatalf("VM reboot speedup %.2f, paper ~2.6", sp)
	}
	for _, row := range tbs[1].Rows {
		for _, cl := range row[1:] {
			if cl == "-" {
				continue
			}
			if v := parseRatio(t, strings.TrimSuffix(cl, "s")); v >= 5 {
				t.Fatalf("switch %s took %vs, paper: all < 5s", row[0], v)
			}
		}
	}
}

func TestFig19PaperPoints(t *testing.T) {
	tb, _ := Run("fig19", TestOptions())
	lo31 := parseRatio(t, cell(t, tb[0], "0.31", "2017-like (48.95% mean)"))
	hi80 := parseRatio(t, cell(t, tb[0], "0.80", "2018-like (87.05% mean)"))
	if lo31 < 8 || lo31 > 20 {
		t.Fatalf("2017@0.31 = %.1f%%, paper 13.8%%", lo31)
	}
	if hi80 < 13 || hi80 > 28 {
		t.Fatalf("2018@0.80 = %.1f%%, paper 19.7%%", hi80)
	}
}

// sscan parses a float from a string.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func TestRenderMarkdownAndCSV(t *testing.T) {
	tb := Table{ID: "x", Title: "T", Columns: []string{"a", "b"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")

	var md bytes.Buffer
	tb.RenderMarkdown(&md)
	for _, want := range []string{"### x: T", "| a | b |", "| --- | --- |", "| 1 | 2 |", "_n_"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}

	var cs bytes.Buffer
	tb.RenderCSV(&cs)
	if !strings.Contains(cs.String(), "#x,a,b") || !strings.Contains(cs.String(), ",1,2") {
		t.Errorf("csv malformed:\n%s", cs.String())
	}
}

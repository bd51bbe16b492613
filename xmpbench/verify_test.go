package main

import (
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"xmp/internal/exp"
)

var fctLabels = []string{"websearch", "datamining", "incast10k", "incast-dctcp", "incast-xmp2"}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// flipByte changes the first digit after the first occurrence of marker.
func flipByte(t *testing.T, s, marker string) string {
	t.Helper()
	i := strings.Index(s, marker)
	if i < 0 {
		t.Fatalf("marker %q not found", marker)
	}
	for j := i + len(marker); j < len(s); j++ {
		if s[j] >= '0' && s[j] <= '9' {
			d := byte('0' + (s[j]-'0'+1)%10)
			return s[:j] + string(d) + s[j+1:]
		}
	}
	t.Fatalf("no digit after %q", marker)
	return ""
}

func TestStripTrailer(t *testing.T) {
	got := stripTrailer("table\nrow 1\n\n[fct completed in 1.677s]\n")
	if got != "table\nrow 1\n" {
		t.Fatalf("stripTrailer = %q", got)
	}
	if got := stripTrailer("row [not a trailer]\n"); got != "row [not a trailer]\n" {
		t.Fatalf("stripTrailer removed a non-trailer line: %q", got)
	}
}

func TestByteCompareCatchesOneByteChange(t *testing.T) {
	golden := readGolden(t, "results_fct.txt")
	k := checker{ref: stripTrailer(golden), labels: fctLabels}
	if bad := k.failedCells([]byte(golden)); len(bad) != 0 {
		t.Fatalf("golden against itself failed cells %v", bad)
	}
	// One byte of one cell's row: exactly that cell fails.
	k.ref = stripTrailer(flipByte(t, golden, "\ndatamining "))
	if bad := k.failedCells([]byte(golden)); !slices.Equal(bad, []int{1}) {
		t.Fatalf("one-byte change in the datamining row failed cells %v, want [1]", bad)
	}
	// One byte outside every cell's rows: every cell fails.
	k.ref = stripTrailer(strings.Replace(golden, "Flow completion", "Flow Completion", 1))
	if bad := k.failedCells([]byte(golden)); len(bad) != len(fctLabels) {
		t.Fatalf("one-byte header change failed cells %v, want all", bad)
	}
}

func TestRowCompareCatchesOneByteChange(t *testing.T) {
	golden := readGolden(t, "results_matrix.txt")
	labels := []string{"XMP-2", "XMP-4", "DCTCP"}
	k := checker{ref: stripTrailer(golden), labels: labels, rows: true}
	if bad := k.failedCells([]byte(golden)); len(bad) != 0 {
		t.Fatalf("golden against itself failed cells %v", bad)
	}
	// A one-pattern Table 1 matches the reference column by name.
	oneColumn := "\nTable 1: Average Goodput (Mbps)\nscheme    Permutation\n------------------------\n" +
		"XMP-2     701.5\nXMP-4     741.6\nDCTCP     647.2\n"
	if bad := k.failedCells([]byte(oneColumn)); len(bad) != 0 {
		t.Fatalf("one-column Table 1 failed cells %v", bad)
	}
	if bad := k.failedCells([]byte(strings.Replace(oneColumn, "741.6", "741.7", 1))); !slices.Equal(bad, []int{1}) {
		t.Fatalf("changed XMP-4 goodput failed cells %v, want [1]", bad)
	}
	// One byte of the reference's Figure 8(a) XMP-2 row.
	fig8 := strings.Index(golden, "Figure 8(a)")
	k.ref = stripTrailer(golden[:fig8] + flipByte(t, golden[fig8:], "\nXMP-2 "))
	if bad := k.failedCells([]byte(golden)); !slices.Equal(bad, []int{0}) {
		t.Fatalf("one-byte change in Figure 8(a) failed cells %v, want [0]", bad)
	}
	if bad := k.failedCells(nil); len(bad) != len(labels) {
		t.Fatalf("empty output failed cells %v, want all", bad)
	}
}

func TestPanickingCellIsCounted(t *testing.T) {
	k := checker{ref: "", labels: fctLabels}
	p := runShards(nil, len(fctLabels), 2, func(s exp.ShardSpec) ([]byte, error) {
		if s.Index == 1 {
			panic("cell exploded")
		}
		return nil, nil
	})
	bad := checkPass(p, k)
	if len(bad) != 2 || !bad[1] || !bad[3] {
		t.Fatalf("a panicking shard 1/2 failed cells %v, want its cells 1 and 3", bad)
	}
	if len(p.Errs) != 1 || !strings.Contains(p.Errs[0], "cell exploded") {
		t.Fatalf("errors %v do not report the panic", p.Errs)
	}
	p = runShards(nil, len(fctLabels), 1, func(exp.ShardSpec) ([]byte, error) {
		return nil, errors.New("bad spec")
	})
	if bad := checkPass(p, k); len(bad) != len(fctLabels) {
		t.Fatalf("an erroring unsharded run failed cells %v, want all", bad)
	}
}

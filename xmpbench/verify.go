package main

import (
	"regexp"
	"slices"
	"strings"
)

// trailerRE matches the timing trailer xmpsim appends to its output
// ("[fct completed in 1.677s]"), which is not reproducible.
var trailerRE = regexp.MustCompile(`^\[\S+ completed in \S+\]$`)

// stripTrailer drops the timing trailer and the blank lines around the end
// of a rendered output, leaving exactly one final newline.
func stripTrailer(s string) string {
	lines := strings.Split(s, "\n")
	for len(lines) > 0 {
		last := lines[len(lines)-1]
		if last != "" && !trailerRE.MatchString(last) {
			break
		}
		lines = lines[:len(lines)-1]
	}
	return strings.Join(lines, "\n") + "\n"
}

// checker finds the cells whose rendered rows differ from a reference.
type checker struct {
	ref string
	// labels[i] is the first column of cell i's rows.
	labels []string
	// rows compares table by table and row by row, matching columns by
	// header name, instead of requiring the whole output to be equal: the
	// output renders a subset of the reference campaign's cells.
	rows bool
}

// failedCells returns the cells whose rows differ from the reference. A
// whole-output mismatch that no cell's rows explain (a header, say) fails
// every cell.
func (k checker) failedCells(got []byte) []int {
	text := stripTrailer(string(got))
	if !k.rows && text == k.ref {
		return nil
	}
	var bad map[string]bool
	if k.rows {
		bad = k.tableDiff(text)
	} else {
		bad = k.lineDiff(text)
	}
	var failed []int
	for i, l := range k.labels {
		if bad[l] || (!k.rows && len(bad) == 0) {
			failed = append(failed, i)
		}
	}
	return failed
}

// lineDiff returns the labels whose lines differ between text and ref.
func (k checker) lineDiff(text string) map[string]bool {
	got, want := linesByLabel(text), linesByLabel(k.ref)
	bad := map[string]bool{}
	for _, l := range k.labels {
		if !slices.Equal(got[l], want[l]) {
			bad[l] = true
		}
	}
	return bad
}

func linesByLabel(text string) map[string][]string {
	out := map[string][]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			out[f[0]] = append(out[f[0]], line)
		}
	}
	return out
}

// table is one rendered table: its header line and its rows by label.
type table struct {
	header string
	rows   map[string]string
}

// parseTables splits a rendered matrix output into tables keyed by title
// ("Table 1: ...", "Figure 8(a): ...") plus sub-title ("  Permutation
// pattern") where a figure has one table per pattern.
func parseTables(text string) map[string]*table {
	tables := map[string]*table{}
	var title, sub string
	var cur *table
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.TrimSpace(line) == "" || strings.Trim(line, "-") == "":
		case strings.HasPrefix(line, "Table ") || strings.HasPrefix(line, "Figure "):
			title, sub, cur = line, "", nil
		case strings.HasPrefix(line, "  ") && strings.HasSuffix(line, " pattern"):
			sub, cur = line, nil
		case cur == nil && strings.HasPrefix(line, "scheme"):
			cur = &table{header: line, rows: map[string]string{}}
			tables[title+"|"+sub] = cur
		case cur != nil:
			cur.rows[strings.Fields(line)[0]] = line
		}
	}
	return tables
}

// tableDiff returns the labels with a row that differs from the same
// table's row in the reference. Where the headers are equal whole lines
// are compared; otherwise each column is matched by header name (Table 1
// of a one-pattern run has one of the reference's three columns).
func (k checker) tableDiff(text string) map[string]bool {
	got, want := parseTables(text), parseTables(k.ref)
	bad := map[string]bool{}
	if len(got) == 0 {
		for _, l := range k.labels {
			bad[l] = true
		}
	}
	for key, g := range got {
		w := want[key]
		for _, l := range k.labels {
			row, ok := g.rows[l]
			switch {
			case !ok || w == nil:
				bad[l] = true
			case g.header == w.header:
				bad[l] = bad[l] || row != w.rows[l]
			default:
				bad[l] = bad[l] || !columnsMatch(g.header, row, w.header, w.rows[l])
			}
		}
	}
	return bad
}

// columnsMatch reports whether every column of (header, row) has the same
// value under the same header name in (refHeader, refRow). Cells must not
// contain spaces, which holds for the tables compared this way.
func columnsMatch(header, row, refHeader, refRow string) bool {
	h, r := strings.Fields(header), strings.Fields(row)
	rh, rr := strings.Fields(refHeader), strings.Fields(refRow)
	if len(h) != len(r) || len(rh) != len(rr) {
		return false
	}
	for i, name := range h {
		j := slices.Index(rh, name)
		if j < 0 || rr[j] != r[i] {
			return false
		}
	}
	return true
}

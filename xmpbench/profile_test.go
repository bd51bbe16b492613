package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"slices"
	"testing"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a gzipped CPU profile. Each sample lists its
// stack leaf first; a stack entry that is a slice of names is one
// location with inlined frames (innermost first).
func syntheticProfile(t *testing.T, samples []struct {
	stack [][]string
	ns    uint64
}) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		if i := slices.Index(strs, s); i >= 0 {
			return uint64(i)
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	prof.bytes(1, (&pb{}).varint(1, str("samples")).varint(2, str("count")).b)
	prof.bytes(1, (&pb{}).varint(1, str("cpu")).varint(2, str("nanoseconds")).b)
	funcs := map[string]uint64{}
	var locID uint64
	for i, s := range samples {
		var locs []uint64
		for _, frames := range s.stack {
			locID++
			loc := (&pb{}).varint(1, locID)
			for _, fn := range frames {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					prof.bytes(5, (&pb{}).varint(1, id).varint(2, str(fn)).b)
				}
				loc.bytes(4, (&pb{}).varint(1, id).varint(2, 10).b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, locID)
		}
		smp := &pb{}
		if i%2 == 0 {
			smp.bytes(1, packed(locs...)).bytes(2, packed(s.ns/1e7, s.ns))
		} else { // unpacked repeated fields are legal too
			for _, l := range locs {
				smp.varint(1, l)
			}
			smp.varint(2, s.ns/1e7).varint(2, s.ns)
		}
		prof.bytes(2, smp.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerSharesOfSyntheticProfile(t *testing.T) {
	type S = struct {
		stack [][]string
		ns    uint64
	}
	data := syntheticProfile(t, []S{
		{[][]string{{"xmp/internal/sim.(*Engine).fire"}}, 40e7},
		// Standard-library leaves are charged to their repository caller.
		{[][]string{{"slices.pdqsortCmpFunc[go.shape.*uint8]"}, {"xmp/internal/sim.sortSpill"}}, 20e7},
		{[][]string{{"xmp/internal/netem.(*Link).OnEvent"}}, 10e7},
		// The runtime keeps its own time, whoever called it.
		{[][]string{{"runtime.mallocgc"}, {"xmp/internal/netem.(*PacketPool).get"}}, 10e7},
		// A helper package inlined into its caller: charged to the caller.
		{[][]string{{"xmp/internal/metrics.(*Dist).Add", "xmp/internal/workload.(*Collector).recordFCT"}}, 5e7},
		{[][]string{{"xmp/internal/core.(*BOS).OnAck"}, {"xmp/internal/transport.(*Conn).onAck"}}, 5e7},
		{[][]string{{"xmp/internal/transport.(*Conn).onAck"}}, 4e7},
		{[][]string{{"xmp/internal/exp.runAll[go.shape.struct { a.b/c.D }].func1"}}, 2e7},
		{[][]string{{"internal/runtime/maps.(*Map).getWithKey"}, {"main.main"}}, 1e7},
		// Library frames only.
		{[][]string{{"syscall.Syscall"}, {"os.(*File).Write"}}, 3e7},
	})
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	got := p.layerShares()
	want := map[string]float64{
		"sim": 0.60, "netem": 0.10, "runtime": 0.11, "workload": 0.05, "cc": 0.05,
		"transport": 0.04, "exp": 0.02, "other": 0.03,
		"topo": 0, "chaos": 0, "scenario": 0,
	}
	if len(got) != len(layers) {
		t.Fatalf("shares cover %d layers, want %d: %v", len(got), len(layers), got)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("%s share = %.4f, want %.2f", l, got[l], w)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"xmp/internal/sim.(*Engine).fire":                    "xmp/internal/sim",
		"runtime.mallocgc":                                   "runtime",
		"xmp/internal/exp.RunFCTCell.func1":                  "xmp/internal/exp",
		"xmp/internal/exp.runAll[go.shape.struct { x/y.Z }]": "xmp/internal/exp",
		"internal/runtime/maps.(*Map).get":                   "internal/runtime/maps",
		"main.main":                                          "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestEveryInternalPackageHasOneLayer keeps the attribution complete: a
// new package under internal/ must be given a layer (or "other", or ""
// for a helper charged to its caller) before its time can be reported.
func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := "xmp/internal/" + e.Name()
		dirs[pkg] = true
		l, ok := layerOfPackage[pkg]
		if !ok {
			t.Errorf("%s has no layer in layerOfPackage", pkg)
			continue
		}
		if l != "" && !slices.Contains(layers, l) {
			t.Errorf("%s maps to unknown layer %q", pkg, l)
		}
	}
	for pkg := range layerOfPackage {
		if !dirs[pkg] {
			t.Errorf("layerOfPackage names %s, which does not exist", pkg)
		}
	}
}

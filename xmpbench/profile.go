package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file buckets a CPU profile by layer. runtime/pprof writes a
// gzipped profile.proto; the few messages needed here are decoded by hand
// so the benchmark needs nothing beyond the standard library.

// layerOfPackage maps every package under internal/ to the layer its CPU
// time is charged to. "" marks a helper package whose time is charged to
// its nearest caller that has a layer. A package missing here is charged
// to "other", and the unit test fails so that it gets a layer.
var layerOfPackage = map[string]string{
	"xmp/internal/sim":       "sim",
	"xmp/internal/netem":     "netem",
	"xmp/internal/topo":      "topo",
	"xmp/internal/transport": "transport",
	"xmp/internal/cc":        "cc",
	"xmp/internal/core":      "cc",
	"xmp/internal/mptcp":     "cc",
	"xmp/internal/workload":  "workload",
	"xmp/internal/chaos":     "chaos",
	"xmp/internal/scenario":  "scenario",
	"xmp/internal/exp":       "exp",
	"xmp/internal/arena":     "",
	"xmp/internal/metrics":   "",
	"xmp/internal/trace":     "other",
	"xmp/internal/dispatch":  "other",
}

// layers lists every bucket a sample can land in, in report order.
var layers = []string{"sim", "netem", "topo", "transport", "cc", "workload", "chaos", "scenario", "exp", "runtime", "other"}

// packageOf returns the import path of a symbol name such as
// "xmp/internal/sim.(*Engine).fire" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// layerOf returns the layer a frame of package pkg is charged to, and
// false when the frame belongs to a library (the rest of the standard
// library, or a helper package) whose time goes to its caller.
func layerOf(pkg string) (string, bool) {
	if l, ok := layerOfPackage[pkg]; ok {
		return l, l != ""
	}
	switch {
	case strings.HasPrefix(pkg, "xmp/"), pkg == "main":
		return "other", true
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	}
	return "", false
}

// frameLayer charges a sample whose stack (leaf first) holds the given
// functions: the first frame with a layer wins; a stack of library frames
// only is "other".
func frameLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(packageOf(fn)); ok {
			return l
		}
	}
	return "other"
}

// profile is the part of a decoded profile.proto the bucketing needs.
type profile struct {
	samples []sample
	// locFuncs maps a location ID to its function names, innermost
	// (inlined) first.
	locFuncs map[uint64][]string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds for a CPU profile
}

// layerShares returns each layer's share of the profile's sampled value.
func (p *profile) layerShares() map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		by[frameLayer(stack)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(by[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

// parseProfile decodes a gzipped (or plain) profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var strs []string
	funcName := map[uint64]int64{} // function ID -> string index
	type loc struct{ funcs []uint64 }
	locs := map[uint64]loc{}
	p := &profile{locFuncs: map[uint64][]string{}}
	err := fields(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var l loc
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = l
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, l := range locs {
		for _, fid := range l.funcs {
			i := funcName[fid]
			if i < 0 || int(i) >= len(strs) {
				return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, i, len(strs))
			}
			p.locFuncs[id] = append(p.locFuncs[id], strs[i])
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// unpacked value (b == nil) or as a packed run.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field number and
// either its varint value (b == nil) or its length-delimited bytes.
func fields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(data) < size {
				return errTruncated
			}
			data = data[size:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

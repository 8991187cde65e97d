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

// hostLayers are the buckets host time is attributed to: every package
// under internal/, "other" for a repository package this list does not
// name, and "runtime" for stacks with no repository frame (GC workers,
// the scheduler).
var hostLayers = []string{
	"sim", "netsim", "core", "mem", "kernel", "uring", "fcgi", "ipcsim",
	"httpd", "cache", "fsim", "cksum", "obs", "wload", "apps", "experiments",
	"other", "runtime",
}

// layerOf names the host layer a function belongs to, "" when it is in
// none. container/heap is the sim engine's event queue.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "container/heap.") {
		return "sim"
	}
	rest, ok := strings.CutPrefix(fn, "iolite/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range hostLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// cpuShares decodes a gzipped CPU profile as runtime/pprof writes it and
// returns each host layer's share of the sampled CPU time. A sample goes to
// the innermost frame on its stack, inlined frames included, that belongs
// to a layer. A profile without samples, of a run shorter than the
// profiler's 10 ms period, gives no shares.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.strings[p.funcNames[fn]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(byLayer))
	for l, v := range byLayer {
		if total > 0 {
			shares[l] = float64(v) / float64(total)
		}
	}
	return shares, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// The field numbers below are those of profile.proto in
// github.com/google/pprof.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case profSample:
			var s sample
			var vals []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, v, sub)
				case sampleValue:
					return appendVarints(&vals, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case profString:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errors.New("profile has no string table")
	}
	for id, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, passing each field's
// number with its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields, which profile.proto does not use, are skipped.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("protobuf: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("protobuf: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("protobuf: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("protobuf: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("protobuf: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("protobuf: wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field occurrence: a single
// value, or a packed run of them.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("protobuf: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

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

// layers are the self-time buckets of the traced run: the internal/
// packages that do work in some workload, then runtime.gc and other.
var layers = []string{
	"sim", "cpu", "bus", "cache", "coherence", "snooplogic", "wrapper", "memory",
	"lock", "isa", "platform", "workload", "runner", "event", "audit", "profile",
	"span", "sharing", "metrics", "explore", "core", "trace", "periph",
	"runtime.gc", "other",
}

// gcPrefixes name the runtime's garbage-collector and allocator frames.
var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.makemap", "runtime.growslice", "runtime.scan",
	"runtime.greyobject", "runtime.markroot", "runtime.markBits", "runtime.findObject",
	"runtime.heapBits", "runtime.typePointers", "runtime.sweep", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.nextFreeFast",
	"runtime.memclrNoHeapPointers", "runtime.(*mspan)", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*gcBits)",
	"runtime.(*sweepLocked)", "runtime.(*gcControllerState)", "runtime.(*pageAlloc)",
	"runtime.(*scavengerState)", "runtime.(*spanSet)",
}

// layerOf maps a leaf function symbol to its layer: hetcc/internal/<pkg>
// to <pkg>, runtime GC and malloc frames to runtime.gc, everything else to
// other, so no sample is dropped.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "hetcc/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	return "other"
}

var errProto = errors.New("malformed profile")

// pbFields calls fn for every field of one protobuf message: its number,
// wire type, and either the integer value or the length-delimited bytes.
func pbFields(b []byte, fn func(num, typ int, v uint64, buf []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var buf []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			buf, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, typ, v, buf); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends a repeated integer field, packed or not.
func pbInts(dst []uint64, typ int, v uint64, buf []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(buf) > 0 {
		x, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errProto
		}
		dst, buf = append(dst, x), buf[n:]
	}
	return dst, nil
}

// foldProfile decodes a runtime/pprof CPU profile (gzipped or raw
// protobuf) and returns each layer's share of CPU time, by the layer of
// each sample's leaf frame.  The shares sum to 1.
func foldProfile(data []byte) (map[string]float64, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		types   []uint64
		strs    []string
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]uint64{} // function id -> string index
	)
	err := pbFields(data, func(num, typ int, _ uint64, buf []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(buf, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := pbFields(buf, func(num, typ int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = pbInts(s.locs, typ, v, b)
				case 2:
					s.vals, err = pbInts(s.vals, typ, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seen := false
			err := pbFields(buf, func(num, _ int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seen: // the first line is the innermost inlined frame
					seen = true
					return pbFields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(buf, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Weight samples by CPU time where the profile records it.
	idx := len(types) - 1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			idx = i
		}
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	total := 0.0
	for _, s := range samples {
		if idx < 0 || idx >= len(s.vals) {
			return nil, errProto
		}
		name := ""
		if len(s.locs) > 0 {
			if si := fnName[locFn[s.locs[0]]]; si < uint64(len(strs)) {
				name = strs[si]
			}
		}
		w := float64(s.vals[idx])
		shares[layerOf(name)] += w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers CPU samples are charged to, each reported as
// cpu.<layer>_pct.
var cpuLayers = []string{
	"parser", "printer", "types", "ast", "mutation", "aunit", "translate",
	"sat", "analyzer", "anacache", "metrics", "llm", "repair", "core",
	"service", "shard", "telemetry", "gc", "other",
}

// layerOfPackage maps a specrepair/internal package path to its layer.
var layerOfPackage = map[string]string{
	"alloy/parser": "parser", "alloy/lexer": "parser", "alloy/token": "parser",
	"alloy/printer": "printer", "alloy/types": "types", "alloy/ast": "ast",
	"mutation": "mutation", "aunit": "aunit", "instance": "aunit",
	"bounds": "translate", "translate": "translate", "sat": "sat",
	"analyzer": "analyzer", "anacache": "anacache", "metrics": "metrics",
	"llm": "llm", "faultloc": "repair", "core": "core", "service": "service",
	"shard": "shard", "telemetry": "telemetry",
}

const internalPrefix = "specrepair/internal/"

// layerOfFunction returns the layer of a fully qualified function name, or
// "" when the function is not in the program's internal packages.
func layerOfFunction(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // generic instantiation: [shape types] may hold paths
	}
	pkgEnd := len(rest)
	if slash := strings.LastIndex(rest, "/"); slash >= 0 {
		if dot := strings.Index(rest[slash:], "."); dot >= 0 {
			pkgEnd = slash + dot
		}
	} else if dot := strings.Index(rest, "."); dot >= 0 {
		pkgEnd = dot
	}
	pkg := rest[:pkgEnd]
	if strings.HasPrefix(pkg, "repair") {
		return "repair"
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "other"
}

// cpuShares profiles the process while fn runs and returns each layer's
// share of CPU samples in percent. A sample is charged to the innermost
// frame in the program's internal packages, so runtime work such as malloc
// lands on its caller; samples under the GC's background mark workers are
// charged to "gc", and the rest to "other".
func cpuShares(fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("decoding CPU profile: %w", err)
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		byLayer[chargeStack(s.stack)] += s.count
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * float64(byLayer[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// chargeStack picks the layer for one stack, innermost frame first.
func chargeStack(stack []string) string {
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	for _, fn := range stack {
		if l := layerOfFunction(fn); l != "" {
			return l
		}
	}
	return "other"
}

// profSample is one decoded profile sample: its sample count and its stack
// of function names, innermost first.
type profSample struct {
	count int64
	stack []string
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes,
// keeping only what cpuShares needs: samples, locations, functions, strings.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, u := range appendPacked(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v, length-delimited fields their bytes in b.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// varint) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

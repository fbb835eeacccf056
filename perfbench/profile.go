package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// The traced half's CPU profile is attributed to frostlab's modules: each
// sample is charged to the innermost frostlab/internal/<module> frame on
// its stack, so standard-library callees (crypto/md5 under delta, flate
// under workload, encoding/json under dash) count toward the layer that
// called them. A sample with no module frame is charged to the
// benchmark's own code (bench) when one of its frames is on the stack, to
// the runtime's background GC workers or its scheduler when theirs are,
// and to "other" otherwise; "other" is the part of the profile the
// attribution does not explain.

// checkLabel marks, with the value "check", the profile samples of
// output checks (archive hashing, digest comparison); they are not part
// of the operation and are left out of the attribution.
const checkLabel = "perfbench"

// unprofiled runs fn labelled as check work.
func unprofiled(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(checkLabel, "check"), func(context.Context) { fn() })
}

// profiledModules are the internal packages a self time is reported for.
var profiledModules = []string{
	"analysis", "campaign", "chaos", "climate", "control", "core", "dash",
	"delta", "econ", "failure", "hardware", "loadgen", "monitor", "power",
	"report", "rules", "sensors", "simkernel", "stats", "telemetry",
	"thermal", "timeseries", "tsdb", "units", "weather", "wire", "workload",
}

const (
	modulePrefix = "frostlab/internal/"
	benchPrefix  = "main."
	benchBucket  = "bench"
	gcBucket     = "runtime.gc"
	schedBucket  = "runtime.sched"
	otherBucket  = "other"
)

// runtimeBuckets maps the entry points of the runtime's own work to its
// bucket: the background GC goroutines, and the scheduler looking for
// work to run or switching goroutines. A switch runs on the scheduler's
// own stack, entered through mcall, so its samples carry no frame of the
// goroutine that yielded or parked.
var runtimeBuckets = map[string]string{
	"runtime.gcBgMarkWorker": gcBucket,
	"runtime.bgsweep":        gcBucket,
	"runtime.bgscavenge":     gcBucket,
	"runtime.schedule":       schedBucket,
	"runtime.findRunnable":   schedBucket,
	"runtime.mcall":          schedBucket,
}

// profile is the subset of a pprof profile the attribution needs.
type profile struct {
	samples []profSample
}

// profSample is one stack (function names, innermost first), the CPU
// nanoseconds it was charged, and whether it was check work.
type profSample struct {
	frames []string
	ns     int64
	check  bool
}

// moduleOf returns the bucket a stack is charged to.
func moduleOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, benchPrefix) {
			return benchBucket
		}
	}
	for _, f := range frames {
		if b, ok := runtimeBuckets[f]; ok {
			return b
		}
	}
	return otherBucket
}

// attribute sums CPU seconds per bucket, leaving out check work.
func (p *profile) attribute() map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		if !s.check {
			out[moduleOf(s.frames)] += float64(s.ns) / 1e9
		}
	}
	return out
}

func readProfileFile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	return p, nil
}

// parseProfile decodes a (gzipped) pprof protobuf profile: the Profile,
// Sample, Location, Line and Function messages of profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string-table indices of key and value
	}
	var (
		strs      []string
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		period    int64
	)
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(wire, v, b, &s.locs)
				case 2:
					var vs []uint64
					if err := appendUints(wire, v, b, &vs); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3: // label
					var kv [2]int64
					err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
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
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", errors.New("string index out of the string table")
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, s := range samples {
		var ps profSample
		for _, kv := range s.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			ps.check = ps.check || k == checkLabel && v == "check"
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				ps.frames = append(ps.frames, name)
			}
		}
		switch {
		case len(s.values) >= 2: // [samples/count, cpu/nanoseconds]
			ps.ns = s.values[1]
		case len(s.values) == 1:
			ps.ns = s.values[0] * period
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(wire int, v uint64, b []byte, out *[]uint64) error {
	if wire == 0 {
		*out = append(*out, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*out = append(*out, x)
		b = b[n:]
	}
	return nil
}

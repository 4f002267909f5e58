package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader of the pprof profile format (profile.proto, gzipped), as
// runtime/pprof writes it. It keeps only what layer attribution needs: the
// sample types, each sample's location stack and values, and the function
// names at each location. Field numbers are profile.proto's.

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string // type names, such as "cpu" or "alloc_space"
	samples     []profSample
	// frames maps a location id to its function names, innermost first
	// (a location holds several when calls were inlined).
	frames map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errProto = errors.New("malformed profile protobuf")

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Names are string-table indices until the whole message is read: the
	// table (field 6) may come after the records that point into it.
	var (
		strs     []string
		typeIdx  []uint64
		funcName = map[uint64]uint64{} // function id -> name index
		locFuncs = map[uint64][]uint64{}
		p        = &profile{frames: map[uint64][]string{}}
	)
	err = fields(raw, func(f, wire int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return fields(b, func(f, wire int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample: {location_id=1, value=2}
			var s profSample
			err := fields(b, func(f, wire int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendInts(s.locs, wire, v, b)
				case 2:
					var vals []uint64
					vals, err = appendInts(nil, wire, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id=1, line=4: Line{function_id=1}}
			var id uint64
			var fns []uint64
			err := fields(b, func(f, wire int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(b, func(f, wire int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: {id=1, name=2}
			var id, name uint64
			err := fields(b, func(f, wire int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
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
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("%w: string index %d of %d", errProto, i, len(strs))
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for loc, fns := range locFuncs {
		for _, fn := range fns {
			name, err := str(funcName[fn])
			if err != nil {
				return nil, err
			}
			p.frames[loc] = append(p.frames[loc], name)
		}
	}
	return p, nil
}

// attribute sums the named sample value into buckets: each sample goes to
// the bucket bucketOf gives its innermost frame that bucketOf accepts, or to
// bgBucket when it accepts none.
func (p *profile) attribute(sampleType string, bucketOf func(fn string) (string, bool)) (map[string]int64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", sampleType, p.sampleTypes)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("%w: sample with %d values", errProto, len(s.values))
		}
		out[bucketOfStack(p, s.locs, bucketOf)] += s.values[vi]
	}
	return out, nil
}

func bucketOfStack(p *profile, locs []uint64, bucketOf func(string) (string, bool)) string {
	for _, loc := range locs {
		for _, fn := range p.frames[loc] {
			if b, ok := bucketOf(fn); ok {
				return b
			}
		}
	}
	return bgBucket
}

// fields calls fn with each field of the protobuf message in b: its number,
// wire type, and either its integer value (varint and fixed types) or its
// bytes (length-delimited type).
func fields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
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
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts decodes one occurrence of a repeated integer field, which
// runtime/pprof writes packed (wire type 2) or as single varints.
func appendInts(dst []uint64, wire int, v uint64, packed []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	if wire != 2 {
		return nil, fmt.Errorf("%w: integer field with wire type %d", errProto, wire)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errProto
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst, nil
}

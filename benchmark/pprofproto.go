package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A reader for just enough of the gzipped pprof profile.proto that
// runtime/pprof writes: per sample, the leaf frame's function name and
// the sample's values. The repo takes no dependencies, so this stands in
// for github.com/google/pprof/profile.
//
// Field numbers (profile.proto): Profile{sample=2, location=4,
// function=5, string_table=6}; Sample{location_id=1, value=2};
// Location{id=1, line=4}; Line{function_id=1}; Function{id=1, name=2}.

// protoField is one decoded field: a varint (wire type 0) or a
// length-delimited payload (wire type 2). Fixed-width fields are skipped.
type protoField struct {
	num   int
	wire  int
	val   uint64
	bytes []byte
}

var errTruncated = errors.New("truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every varint and length-delimited field of msg.
func eachField(msg []byte, fn func(f protoField) error) error {
	for len(msg) > 0 {
		key, rest, err := readVarint(msg)
		if err != nil {
			return err
		}
		msg = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, msg, err = readVarint(msg); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			n, rest, err := readVarint(msg)
			if err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.bytes, msg = rest[:n], rest[n:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends the values of a repeated integer field, which
// arrives either packed (wire type 2) or one value per field.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// inlineSep joins the functions of a leaf location, innermost first.
const inlineSep = ";"

// parseCPUProfile decodes a gzipped CPU profile and returns the CPU
// nanoseconds attributed to each leaf location, plus the sample count. A
// leaf is named by its function, or — where the compiler inlined — by
// the chain "inlined callee;...;physical function", innermost first.
// Go CPU profiles carry two values per sample, samples/count and
// cpu/nanoseconds, in that order.
func parseCPUProfile(gz []byte) (nsByLeaf map[string]int64, samples int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile is not gzipped: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("inflate profile: %w", err)
	}

	type sample struct {
		leafLoc uint64
		values  []uint64
	}
	var (
		samplesRaw []sample
		strings    []string
		locFns     = map[uint64][]uint64{} // location id -> function ids of its lines, innermost first
		fnName     = map[uint64]uint64{}   // function id -> string-table index
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var s sample
			var locs []uint64
			if err := eachField(f.bytes, func(sf protoField) error {
				var err error
				switch sf.num {
				case 1:
					locs, err = repeatedVarints(locs, sf)
				case 2:
					s.values, err = repeatedVarints(s.values, sf)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 {
				s.leafLoc = locs[0] // location_id[0] is the leaf
				samplesRaw = append(samplesRaw, s)
			}
		case 4: // location
			var id uint64
			var fns []uint64 // line[0] is the innermost inlined frame
			if err := eachField(f.bytes, func(lf protoField) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					return eachField(lf.bytes, func(ln protoField) error {
						if ln.num == 1 {
							fns = append(fns, ln.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(f.bytes, func(ff protoField) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strings = append(strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	nsByLeaf = map[string]int64{}
	for _, s := range samplesRaw {
		if len(s.values) < 2 {
			return nil, 0, fmt.Errorf("sample has %d values, want samples/count and cpu/nanoseconds", len(s.values))
		}
		name := ""
		for _, fn := range locFns[s.leafLoc] {
			if idx, ok := fnName[fn]; ok && idx < uint64(len(strings)) {
				if name != "" {
					name += inlineSep
				}
				name += strings[idx]
			}
		}
		if name == "" {
			name = "<unknown>"
		}
		samples += int64(s.values[0])
		nsByLeaf[name] += int64(s.values[1])
	}
	return nsByLeaf, samples, nil
}

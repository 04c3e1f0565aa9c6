package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto)
// with a minimal protobuf walker, so the benchmark needs nothing outside
// the standard library, and splits the samples by the package of their
// leaf frame.

// cpuSample is one profile sample: its stack of function names, leaf
// first, and its sample count.
type cpuSample struct {
	stack []string
	count int64
}

// field is one decoded protobuf field: a varint or a length-delimited
// payload.
type field struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func readVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// fields splits one message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("profile: short payload")
			}
			f.b, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f field) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.b
	for len(b) > 0 {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzipped CPU profile into samples.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var rs rawSample
			var vals []uint64
			for _, sf := range sub {
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					rs.locs = append(rs.locs, vs...)
				case 2:
					vals = append(vals, vs...)
				}
			}
			if len(vals) > 0 {
				rs.count = int64(vals[0])
			}
			raws = append(raws, rs)
		case 4: // location
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.v
				case 4: // line; the first is the innermost inlined call
					lf, err := fields(sf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range lf {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.v
				case 2:
					name = sf.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	out := make([]cpuSample, 0, len(raws))
	for _, rs := range raws {
		s := cpuSample{count: rs.count}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcName[fid]; int(idx) < len(strs) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// funcPackage extracts the import path from a qualified function name:
// "repro/internal/sim.(*Env).Step" -> "repro/internal/sim".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// packageLayer maps a leaf frame's package to the layer it is charged
// to. container/heap is charged to sim: the event queue is its only user
// in the program.
func packageLayer(pkg string) string {
	switch {
	case pkg == "container/heap":
		return "sim"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "repro/faasflow":
		return "faasflow"
	case strings.HasPrefix(pkg, "repro/perfbench"):
		return "perfbench"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/"):
		return "runtime"
	}
	return "other:" + pkg
}

// profileSplit is the per-layer share of CPU samples.
type profileSplit struct {
	Samples   int64              `json:"samples"`
	SelfPct   map[string]float64 `json:"self_pct"`
	MallocPct float64            `json:"malloc_pct"` // stacks through runtime.mallocgc
	TopLeaves []leafShare        `json:"top_leaves"`
}

type leafShare struct {
	Func string  `json:"func"`
	Pct  float64 `json:"pct"`
}

// splitByLayer charges every sample to its leaf frame's layer.
func splitByLayer(samples []cpuSample) profileSplit {
	ps := profileSplit{SelfPct: map[string]float64{}}
	leaf := map[string]int64{}
	var malloc int64
	for _, s := range samples {
		ps.Samples += s.count
		if len(s.stack) == 0 {
			ps.SelfPct["other:unknown"] += float64(s.count)
			continue
		}
		ps.SelfPct[packageLayer(funcPackage(s.stack[0]))] += float64(s.count)
		leaf[s.stack[0]] += s.count
		for _, fn := range s.stack {
			if fn == "runtime.mallocgc" {
				malloc += s.count
				break
			}
		}
	}
	if ps.Samples == 0 {
		return ps
	}
	for k, v := range ps.SelfPct {
		ps.SelfPct[k] = 100 * v / float64(ps.Samples)
	}
	ps.MallocPct = 100 * float64(malloc) / float64(ps.Samples)
	for fn, c := range leaf {
		ps.TopLeaves = append(ps.TopLeaves, leafShare{fn, 100 * float64(c) / float64(ps.Samples)})
	}
	sort.Slice(ps.TopLeaves, func(a, b int) bool {
		if ps.TopLeaves[a].Pct != ps.TopLeaves[b].Pct {
			return ps.TopLeaves[a].Pct > ps.TopLeaves[b].Pct
		}
		return ps.TopLeaves[a].Func < ps.TopLeaves[b].Func
	})
	if len(ps.TopLeaves) > 25 {
		ps.TopLeaves = ps.TopLeaves[:25]
	}
	return ps
}

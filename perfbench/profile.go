package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// CPU attribution for the layers that have no seam (policy, the
// federation hub and wire, net/syscall): a runtime/pprof CPU profile of
// the traced phase, decoded here from its protobuf form with the
// standard library only.

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// cpuAttribution is CPU nanoseconds by attribution class.
type cpuAttribution struct {
	total int64
	// policy: samples with any frame in the policy package (the policy
	// layer calls no other layer, so inclusive time is its own).
	policy int64
	// mayDispatch: samples under policy.(*State).MayDispatch.
	mayDispatch int64
	// federation: samples whose innermost program frame is in the
	// federation package (hub serial section, node loop, wire codec),
	// excluding the policy, WAL and subsystem work it calls.
	federation int64
	// federationNet: federation samples spent in net, internal/poll or
	// syscall frames (socket reads and writes of the wire protocol).
	federationNet int64
}

func (a *cpuAttribution) add(b cpuAttribution) {
	a.total += b.total
	a.policy += b.policy
	a.mayDispatch += b.mayDispatch
	a.federation += b.federation
	a.federationNet += b.federationNet
}

// stop ends the profile and attributes its samples.
func (p *cpuProfile) stop() (cpuAttribution, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes())
}

const (
	pkgPrefix  = "transproc/internal/"
	policyPkg  = pkgPrefix + "scheduler/policy."
	fedPkg     = pkgPrefix + "federation."
	mayDispFn  = policyPkg + "(*State).MayDispatch"
	benchPkg   = "main."
	netMarkers = "net.|net/http.|internal/poll.|syscall."
)

func attribute(gz []byte) (cpuAttribution, error) {
	var a cpuAttribution
	prof, err := decodeProfile(gz)
	if err != nil {
		return a, err
	}
	for _, s := range prof.samples {
		frames := prof.stack(s.locs) // leaf first
		ns := s.cpuNS
		a.total += ns
		inPolicy, inMay, net := false, false, false
		innermost := ""
		for _, f := range frames {
			if strings.HasPrefix(f, policyPkg) {
				inPolicy = true
			}
			if strings.HasPrefix(f, mayDispFn) {
				inMay = true
			}
			if innermost == "" {
				if strings.HasPrefix(f, pkgPrefix) || strings.HasPrefix(f, benchPkg) {
					innermost = f
				} else if isNet(f) {
					net = true
				}
			}
		}
		if inPolicy {
			a.policy += ns
		}
		if inMay {
			a.mayDispatch += ns
		}
		if strings.HasPrefix(innermost, fedPkg) {
			a.federation += ns
			if net {
				a.federationNet += ns
			}
		}
	}
	return a, nil
}

func isNet(fn string) bool {
	for _, m := range strings.Split(netMarkers, "|") {
		if strings.HasPrefix(fn, m) {
			return true
		}
	}
	return false
}

// profile is the part of profile.proto the attribution reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strs      []string
	cpuIndex  int // index of the cpu/nanoseconds value
}

type sample struct {
	locs  []uint64
	cpuNS int64
}

func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}, cpuIndex: -1}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		raws       []rawSample
		valueTypes [][2]int64 // (type, unit) string indices
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, pb)
				case 2:
					s.vals = appendPacked(s.vals, v, pb)
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, vt := range valueTypes {
		if int(vt[1]) < len(p.strs) && p.strs[vt[1]] == "nanoseconds" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 && len(raws) > 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	for _, r := range raws {
		if p.cpuIndex < len(r.vals) {
			p.samples = append(p.samples, sample{locs: r.locs, cpuNS: int64(r.vals[p.cpuIndex])})
		}
	}
	return p, nil
}

// appendPacked adds a repeated scalar field that arrived either as one
// varint (v, b == nil) or packed (b holds varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protobuf message, calling f with each field number
// and either its varint value or its length-delimited bytes (b != nil).
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// goCPU reads the runtime's own CPU-class estimates.
type goCPU struct{ gc, user, scavenge, allocBytes float64 }

func readGoCPU() goCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goCPU{gc: val(0), user: val(1), scavenge: val(2), allocBytes: val(3)}
}

// add accumulates the difference between two readings.
func (g *goCPU) add(a, b goCPU) {
	g.gc += b.gc - a.gc
	g.user += b.user - a.user
	g.scavenge += b.scavenge - a.scavenge
	g.allocBytes += b.allocBytes - a.allocBytes
}

// gcShare is the GC share of the Go CPU time in accumulated deltas.
func (g goCPU) gcShare() float64 {
	return ratio(g.gc, g.gc+g.user+g.scavenge)
}

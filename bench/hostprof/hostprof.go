// Package hostprof attributes the simulator's host cost to its
// packages from the outside: it decodes a runtime/pprof CPU profile
// (gzip-compressed profile.proto, read here with a minimal protobuf
// decoder — the standard library has no pprof reader) and the
// runtime's heap-profile records, and assigns every sample to the
// innermost repro/internal/<pkg> frame on its stack. Samples whose
// runtime frames above that point are goroutine hand-off (channel
// operations, park/ready, futex, the scheduler) or GC/malloc are also
// counted under those two cross-cutting headings.
package hostprof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// Shares is a profile folded by package.
type Shares struct {
	// Total is the summed sample value (CPU nanoseconds, or allocated
	// bytes).
	Total float64
	// ByPackage maps "sim", "hw", ... to their share of Total; samples
	// with no repro/internal frame land under "other".
	ByPackage map[string]float64
	// Handoff and GC are the shares of Total spent in goroutine
	// hand-off and in GC + malloc (CPU profiles only; they overlap the
	// per-package attribution).
	Handoff, GC float64
}

const internalPrefix = "repro/internal/"

// packageOf returns the repro/internal package a function belongs to,
// or "".
func packageOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

var handoffMarks = []string{
	"runtime.chanrecv", "runtime.chansend", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.futex", "runtime.notesleep",
	"runtime.notewakeup", "runtime.notetsleep", "runtime.mcall", "runtime.casgstatus", "runtime.runqget",
	"runtime.runqput", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.execute",
	"runtime.lock2", "runtime.unlock2", "runtime.semasleep", "runtime.semawakeup", "runtime.goexit0",
	"runtime.newproc", "runtime.gogo", "runtime.resetspinning", "runtime.send", "runtime.recv",
}

var gcMarks = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.scanobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc", "runtime.markroot",
	"runtime.sweepone", "runtime.gcStart", "runtime.gcMarkTermination", "runtime.greyobject",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep", "runtime.gcMarkDone", "runtime.newobject",
	"runtime.growslice", "runtime.makeslice",
}

func marked(fn string, marks []string) bool {
	for _, m := range marks {
		if fn == m || strings.HasPrefix(fn, m+".") || strings.HasPrefix(fn, m+"[") {
			return true
		}
	}
	return false
}

// classify folds one stack (leaf first) of weight w into s.
func (s *Shares) classify(stack []string, w float64) {
	s.Total += w
	pkg, handoff, gc := "other", false, false
	for _, fn := range stack {
		if p := packageOf(fn); p != "" {
			pkg = p
			break
		}
		if !strings.HasPrefix(fn, "runtime.") {
			continue
		}
		if marked(fn, gcMarks) {
			gc = true
		} else if marked(fn, handoffMarks) {
			handoff = true
		}
	}
	s.ByPackage[pkg] += w
	switch {
	case gc:
		s.GC += w
	case handoff:
		s.Handoff += w
	}
}

// normalize turns sums into shares of Total.
func (s *Shares) normalize() {
	if s.Total == 0 {
		return
	}
	for k := range s.ByPackage {
		s.ByPackage[k] /= s.Total
	}
	s.Handoff /= s.Total
	s.GC /= s.Total
}

// CPU folds a runtime/pprof CPU profile (as written by
// pprof.StartCPUProfile) by package.
func CPU(profile []byte) (*Shares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("hostprof: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("hostprof: cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("hostprof: cpu profile: %w", err)
	}
	s := &Shares{ByPackage: map[string]float64{}}
	var stack []string
	for _, smp := range prof.samples {
		stack = stack[:0]
		for _, loc := range smp.locations {
			for _, fnID := range prof.locations[loc] {
				stack = append(stack, prof.strings[prof.functions[fnID]])
			}
		}
		s.classify(stack, float64(smp.value))
	}
	s.normalize()
	return s, nil
}

// AllocBaseline is the allocation volume the runtime's heap profile
// held per stack at one instant.
type AllocBaseline map[[32]uintptr]int64

// AllocSnapshot records what the heap profile holds now, per stack. (The
// runtime keeps one record per stack and size class; a baseline has to
// be subtracted per stack, so the size classes are summed.) The profile
// accumulates from process start, so a caller that profiles several
// stretches in one process takes a snapshot before each and hands it
// to Alloc. Call it after two runtime.GC cycles, so every allocation
// sampled so far has been published.
func AllocSnapshot() AllocBaseline {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	snap := AllocBaseline{}
	for i := range recs[:n] {
		snap[recs[i].Stack0] += recs[i].AllocBytes
	}
	return snap
}

// Alloc folds the runtime's heap profile by package, counting only the
// allocation volume added since base was taken. Call it with
// runtime.MemProfileRate still set, after two runtime.GC cycles, so
// every sampled allocation has been published.
func Alloc(base AllocBaseline) *Shares {
	s := &Shares{ByPackage: map[string]float64{}}
	var stack []string
	for pcs, bytes := range AllocSnapshot() {
		added := bytes - base[pcs]
		if added <= 0 {
			continue
		}
		depth := 0
		for depth < len(pcs) && pcs[depth] != 0 {
			depth++
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(pcs[:depth])
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		s.classify(stack, float64(added))
	}
	s.GC, s.Handoff = 0, 0
	s.normalize()
	return s
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost (inlined) first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value: CPU nanoseconds
}

// Field numbers of profile.proto.
const (
	profSample, profLocation, profFunction, profStringTable = 2, 4, 5, 6
	sampleLocationID, sampleValue                           = 1, 2
	locationID, locationLine                                = 1, 4
	lineFunctionID                                          = 1
	functionID, functionName                                = 1, 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocationID:
					return repeated(v, data, func(x uint64) { s.locations = append(s.locations, x) })
				case sampleValue:
					return repeated(v, data, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
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
			p.locations[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, fmt.Errorf("function name index %d outside the string table", name)
		}
	}
	return p, nil
}

// repeated visits a repeated integer field, packed (data) or not (v).
func repeated(v uint64, data []byte, visit func(uint64)) error {
	if data == nil {
		visit(v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n == 0 {
			return fmt.Errorf("truncated packed varint")
		}
		visit(x)
		data = data[n:]
	}
	return nil
}

// fields walks the top-level fields of one protobuf message: varint
// fields arrive in v (data nil), length-delimited ones in data; fixed
// 32/64-bit fields are skipped.
func fields(b []byte, visit func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return fmt.Errorf("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return fmt.Errorf("truncated varint in field %d", num)
			}
			b = b[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("truncated fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("truncated bytes in field %d", num)
			}
			data := b[n : n+int(l) : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
			if err := visit(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("truncated fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

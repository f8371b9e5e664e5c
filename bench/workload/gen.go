package workload

// Input generation. Everything random in a workload is drawn here,
// from math/rand streams split off the one seed; the program under
// test only ever sees the generated sizes, offsets, names and bytes.

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// rngFor splits an independent stream off the seed for one purpose
// (sizes, offsets, a client's dice, ...), so adding a draw to one
// stream never shifts another.
func rngFor(seed int64, purpose string, idx int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// logUniform returns n sizes log-uniform on [lo, hi], stratified: the
// i-th size falls in the i-th of n equal slices of the log range, at a
// seed-drawn position inside the middle of its slice. Every seed thus
// sees the same distribution to within a fraction of a slice —
// percentiles and byte totals barely move between seeds — while the
// individual sizes, and after shuffling their order, do.
func logUniform(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	llo, span := math.Log(float64(lo)), math.Log(float64(hi))-math.Log(float64(lo))
	for i := range out {
		pos := (float64(i) + 0.25 + 0.5*rng.Float64()) / float64(n)
		v := int(math.Exp(llo+pos*span) + 0.5)
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[i] = v
	}
	return out
}

// logUniformDraws returns n independent log-uniform sizes on [lo, hi].
// Where a class is large and cheap (netpipe's small messages) plain
// draws are stable enough and keep its quantiles seed-dependent, which
// stratified integer sizes would pin to one value.
func logUniformDraws(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	llo, span := math.Log(float64(lo)), math.Log(float64(hi))-math.Log(float64(lo))
	for i := range out {
		out[i] = int(math.Exp(llo+rng.Float64()*span) + 0.5)
	}
	return out
}

// shuffle permutes xs in place.
func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// tape is a block of seed-derived pseudo-random bytes. Write payloads
// are windows of it at seed-drawn offsets, so two operations never
// carry the same bytes and a misdelivered or stale buffer fails its
// comparison; file seed content is the tape repeated with a per-block
// stamp (see fillFile).
type tape []byte

// tapeSlack is how far a payload window's start may wander.
const tapeSlack = 64 << 10

// newTape generates max+tapeSlack bytes from the seed.
func newTape(seed int64, max int) tape {
	t := make([]byte, (max+tapeSlack+7)&^7)
	x := uint64(seed)*0x2545f4914f6cdd1d + 0x9e3779b97f4a7c15
	for i := 0; i < len(t); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(t[i:], x)
	}
	return t
}

// window returns n bytes of tape starting at off (off < tapeSlack).
func (t tape) window(off, n int) []byte { return t[off : off+n] }

// fillFile writes the seed-derived content of file number id into dst:
// the tape XOR a per-(file, 4 KB block) stamp, so every block of every
// file is distinct and a read served from the wrong offset, file or
// server is caught.
func (t tape) fillFile(dst []byte, id int) {
	period := len(t) - tapeSlack
	for off := 0; off < len(dst); off += 4096 {
		end := off + 4096
		if end > len(dst) {
			end = len(dst)
		}
		src := t[off%period:]
		stamp := byte(off>>12) ^ byte(off>>20) ^ byte(id*37+1)
		for i := off; i < end; i++ {
			dst[i] = src[i-off] ^ stamp
		}
	}
}

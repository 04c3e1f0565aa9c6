package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail may use, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
// The epsilon keeps p*n/100 from rounding up past an exact rank (99.9 has
// no exact binary form).
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond reports how many of n sorted samples rank above percentile p.
func beyond(p float64, n int) int { return n - 1 - rankIndex(p, n) }

// tailPercentile picks the highest candidate percentile with at least ten
// samples ranked above it. It reports ok=false when even the median has
// fewer than ten (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(c, n) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// summary is a sample set reduced to its median and tail.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailP  float64 // percentile the tail used; 0 when too few samples
	Beyond int     // samples ranked above the tail
}

// summarize sorts a copy of xs and reports its median and its tail under
// the ten-beyond rule. With too few samples for any candidate the tail is
// the maximum, reported with TailP 100.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: n, P50: s[rankIndex(50, n)]}
	p, ok := tailPercentile(n)
	if !ok {
		out.Tail, out.TailP = s[n-1], 100
		return out
	}
	out.Tail, out.TailP, out.Beyond = s[rankIndex(p, n)], p, beyond(p, n)
	return out
}

// median of xs (mean of the middle pair for even lengths); 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is an FNV-64a hash over simulated latencies in completion order:
// any change to the modelled outcome, however small, changes it.
func digest(lat []time.Duration) string {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range lat {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

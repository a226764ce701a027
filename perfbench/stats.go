package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"github.com/gmrl/househunt/internal/core"
)

// median returns the middle sample (the mean of the two middle ones for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the 90th-percentile sample when at least ten samples lie
// beyond it; with fewer samples it returns the highest percentile that still
// has ten beyond it, but never less than the median: for an even count, the
// upper of the two middle samples. The value is a sample (nearest rank), so
// it reads as a real op time.
func tail(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	rank := min(int(math.Ceil(0.9*float64(n))), n-10)
	rank = max(rank, n/2+1)
	return s[rank-1]
}

// mix derives a 64-bit seed from a base seed and coordinates (splitmix64
// steps), so every op's inputs are a pure function of --seed.
func mix(base uint64, coords ...uint64) uint64 {
	x := base
	for _, c := range append(coords, 0) {
		x += 0x9e3779b97f4a7c15 ^ c
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// digest folds op outcomes into one fingerprint of the run's results.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(words ...uint64) {
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		d.h.Write(buf[:])
	}
}

func (d *digest) addString(s string) {
	d.add(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// addResult folds one replicate's result.
func (d *digest) addResult(seed uint64, r core.Result) {
	words := []uint64{seed, boolWord(r.Solved), uint64(r.Winner), math.Float64bits(r.WinnerQuality), uint64(r.Rounds),
		uint64(r.FinalCensus.Decided), uint64(r.FinalCensus.Faulty), uint64(r.FinalCensus.Total)}
	for _, c := range r.FinalCensus.Committed {
		words = append(words, uint64(c))
	}
	d.add(words...)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// span is one recorded interval of a traced run: ops are top-level spans and
// the layer calls an op makes are its children (Parent = the op's ID).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
	ids   int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newID reserves a span ID, so children can name an op before it ends.
func (l *spanLog) newID() int {
	l.ids++
	return l.ids
}

// record logs [start, end) as span id under parent (0 = top level).
func (l *spanLog) record(id, parent int, name string, start, end time.Time) {
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUs: us(start.Sub(l.epoch)), DurUs: us(end.Sub(start)),
	})
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

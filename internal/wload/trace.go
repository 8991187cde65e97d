// Package wload generates the Web workloads of the paper's evaluation:
// synthetic access traces moment-matched to the published statistics of the
// Rice University logs (Figure 7: ECE, CS, MERGED; Figure 9: the 150 MB
// MERGED subtrace), popularity-weighted request sampling (SpecWeb96-style,
// §5.5), and the cumulative-distribution data the trace-characteristics
// figures plot.
package wload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iolite/internal/fsim"
)

// TraceSpec summarizes one access log with the statistics the paper
// publishes for it.
type TraceSpec struct {
	Name string
	// Files is the number of distinct static documents.
	Files int
	// TotalBytes is the total static data set size.
	TotalBytes int64
	// Requests is the log length (used for reporting; experiments sample
	// as many requests as their duration admits).
	Requests int64
	// MeanReqBytes is the average transferred request size.
	MeanReqBytes int64
	// ZipfAlpha shapes popularity concentration.
	ZipfAlpha float64
	// Seed makes generation reproducible.
	Seed int64
}

// The paper's three workloads (§5.4, Figure 7).
var (
	ECE = TraceSpec{
		Name: "ECE", Files: 10195, TotalBytes: 523 << 20, Requests: 783529,
		MeanReqBytes: 23 << 10, ZipfAlpha: 1.10, Seed: 101,
	}
	CS = TraceSpec{
		Name: "CS", Files: 26948, TotalBytes: 933 << 20, Requests: 3746842,
		MeanReqBytes: 20 << 10, ZipfAlpha: 1.00, Seed: 102,
	}
	MERGED = TraceSpec{
		Name: "MERGED", Files: 37703, TotalBytes: 1418 << 20, Requests: 2290909,
		MeanReqBytes: 17 << 10, ZipfAlpha: 0.85, Seed: 103,
	}
	// Subtrace150 matches Figure 9: the MERGED prefix with a 150 MB data
	// set (5459 files, 28403 requests in the paper's one-pass log; our
	// experiments sample it arbitrarily long).
	Subtrace150 = TraceSpec{
		Name: "MERGED-150MB", Files: 5459, TotalBytes: 150 << 20, Requests: 28403,
		MeanReqBytes: 17 << 10, ZipfAlpha: 0.80, Seed: 104,
	}
)

// Trace is a generated workload: per-file sizes and request popularity.
// File index 0 is the most popular document.
type Trace struct {
	Spec  TraceSpec
	Sizes []int64 // indexed by popularity rank

	weights []float64 // request probability by popularity rank
	cum     []float64
	paths   []string // file names by popularity rank
}

// Generate builds a trace matching spec: lognormal file sizes scaled to
// TotalBytes, Zipf popularity, and a size/popularity correlation tuned so
// the mean request size matches spec.MeanReqBytes.
func Generate(spec TraceSpec) *Trace {
	rng := rand.New(rand.NewSource(spec.Seed))

	// File sizes: lognormal with a few-KB median and a heavy tail, scaled
	// to the exact data set size.
	sizes := make([]int64, spec.Files)
	var sum int64
	for i := range sizes {
		s := int64(math.Exp(8.0 + 2.0*rng.NormFloat64()))
		if s < 128 {
			s = 128
		}
		if s > spec.TotalBytes/8 {
			s = spec.TotalBytes / 8 // no single file dwarfs the data set
		}
		sizes[i] = s
		sum += s
	}
	scale := float64(spec.TotalBytes) / float64(sum)
	sum = 0
	for i := range sizes {
		sizes[i] = int64(float64(sizes[i]) * scale)
		if sizes[i] < 64 {
			sizes[i] = 64
		}
		sum += sizes[i]
	}
	// Pin the total exactly by adjusting the largest file.
	maxI := 0
	for i := range sizes {
		if sizes[i] > sizes[maxI] {
			maxI = i
		}
	}
	sizes[maxI] += spec.TotalBytes - sum
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })

	// Zipf popularity over ranks.
	weights := make([]float64, spec.Files)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), spec.ZipfAlpha)
		wsum += weights[i]
	}
	for i := range weights {
		weights[i] /= wsum
	}

	// Correlate popularity with size the way real logs do: only the very
	// top ranks skew small (hot pages are small HTML), while the rest of
	// the catalog is size-independent. Ranks below K draw from the
	// smallest q-quantile of files; q is binary-searched so the
	// popularity-weighted mean request size hits the target.
	topK := spec.Files / 30
	if topK < 32 {
		topK = 32
	}
	// The largest ~2% of files (archives, images) receive modest but real
	// traffic: they are pinned deterministically at evenly spaced ranks in
	// the bottom two-thirds of the popularity order. Deterministic
	// placement keeps the weighted mean smooth in q (a single random
	// multi-megabyte file on a hot rank would dominate it), while spreading
	// them — rather than dumping them at the very bottom — preserves the
	// real logs' property that a memory-sized cache cannot cover almost all
	// request bytes.
	bigCount := spec.Files / 50
	bigStart := spec.Files / 3
	bigRank := func(j int) int {
		span := spec.Files - bigStart
		return bigStart + j*span/bigCount
	}
	meanFor := func(q float64) ([]int64, float64) {
		r := rand.New(rand.NewSource(spec.Seed + 7))
		midEnd := spec.Files - bigCount // sizes[midEnd:] are the big tail
		smallPool := int(q * float64(spec.Files))
		if smallPool < topK {
			smallPool = topK
		}
		if smallPool > midEnd {
			smallPool = midEnd
		}
		perm := make([]int64, spec.Files)
		taken := make([]bool, spec.Files) // ranks occupied by big files
		for j := 0; j < bigCount; j++ {
			rk := bigRank(j)
			for taken[rk] {
				rk++
			}
			taken[rk] = true
			perm[rk] = sizes[midEnd+j]
		}
		used := make([]bool, spec.Files)
		for rank := 0; rank < spec.Files; rank++ {
			if taken[rank] {
				continue
			}
			var idx int
			if rank < topK {
				// Spread top ranks across the pool's quantiles, hottest
				// rank at the pool's top. Rank 0 carries several percent of
				// all requests, so a uniformly random draw here would make
				// the mean discontinuous (and non-monotone) in q.
				idx = (smallPool - 1) - rank*smallPool/topK
				for used[idx] {
					idx = (idx + 1) % smallPool
				}
			} else {
				idx = r.Intn(midEnd)
				for used[idx] {
					idx = (idx + 1) % midEnd
				}
			}
			used[idx] = true
			perm[rank] = sizes[idx]
		}
		var mean float64
		for rank, w := range weights {
			mean += w * float64(perm[rank])
		}
		return perm, mean
	}
	lo, hi := 0.002, 1.0
	var best []int64
	for iter := 0; iter < 22; iter++ {
		mid := (lo + hi) / 2
		perm, mean := meanFor(mid)
		best = perm
		if mean > float64(spec.MeanReqBytes) {
			hi = mid // smaller quantile → smaller hot files → smaller mean
		} else {
			lo = mid
		}
	}

	t := &Trace{Spec: spec, Sizes: best, weights: weights, paths: tracePaths(spec.Name, len(best))}
	t.cum = make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		t.cum[i] = acc
	}
	return t
}

// Path names the file at popularity rank i.
func (t *Trace) Path(i int) string { return t.paths[i] }

// tracePaths names n files of the trace called name, by popularity rank.
func tracePaths(name string, n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/%s/f%05d", name, i)
	}
	return paths
}

// Install creates the trace's files in fs.
func (t *Trace) Install(fs *fsim.FS) {
	for i, s := range t.Sizes {
		fs.Create(t.Path(i), s)
	}
}

// Sample draws a file rank with popularity weighting.
func (t *Trace) Sample(rng *rand.Rand) int {
	x := rng.Float64()
	return sort.SearchFloat64s(t.cum, x)
}

// MeanRequestBytes reports the popularity-weighted mean transfer size.
func (t *Trace) MeanRequestBytes() int64 {
	var mean float64
	for i, w := range t.weights {
		mean += w * float64(t.Sizes[i])
	}
	return int64(mean)
}

// DataBytes reports the total data set size.
func (t *Trace) DataBytes() int64 {
	var sum int64
	for _, s := range t.Sizes {
		sum += s
	}
	return sum
}

// Prefix returns a smaller workload of approximately dataBytes, derived
// the way the paper derives its sweep inputs from log prefixes (§5.5): the
// subset preserves the joint size/popularity mix — a stratified sample
// across the popularity ranks — so the mean request size stays roughly
// constant while the data set shrinks. Popularity is renormalized.
func (t *Trace) Prefix(dataBytes int64) *Trace {
	frac := float64(dataBytes) / float64(t.DataBytes())
	if frac >= 1 {
		return t
	}
	taken := make([]bool, len(t.Sizes))
	var sum int64
	acc := 0.0
	for i := range t.Sizes {
		acc += frac
		if acc < 1 {
			continue
		}
		acc--
		taken[i] = true
		sum += t.Sizes[i]
	}
	// The stratified pass hits the byte target only in expectation; top up
	// with unselected files (skipping ones that would badly overshoot).
	for i := range t.Sizes {
		if sum >= dataBytes {
			break
		}
		if taken[i] || t.Sizes[i] > 2*(dataBytes-sum) {
			continue
		}
		taken[i] = true
		sum += t.Sizes[i]
	}
	var sizes []int64
	var weights []float64
	for i := range t.Sizes {
		if taken[i] {
			sizes = append(sizes, t.Sizes[i])
			weights = append(weights, t.weights[i])
		}
	}
	spec := t.Spec
	spec.Name = fmt.Sprintf("%s-%dMB", t.Spec.Name, dataBytes>>20)
	spec.Files = len(sizes)
	spec.TotalBytes = sum
	sub := &Trace{Spec: spec, Sizes: sizes, weights: weights, paths: tracePaths(spec.Name, len(sizes))}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	sub.cum = make([]float64, len(weights))
	a := 0.0
	for i := range weights {
		sub.weights[i] = weights[i] / wsum
		a += sub.weights[i]
		sub.cum[i] = a
	}
	return sub
}

// CDFPoint is one point of the Figure 7/9 characteristic curves: after the
// `Rank` most-requested files, the cumulative fraction of requests and of
// the static data size.
type CDFPoint struct {
	Rank     int
	ReqFrac  float64
	SizeFrac float64
}

// CDF returns `points` evenly spaced points of the cumulative
// request/data-size distributions over files sorted by request count.
func (t *Trace) CDF(points int) []CDFPoint {
	total := float64(t.DataBytes())
	out := make([]CDFPoint, 0, points)
	step := len(t.Sizes) / points
	if step < 1 {
		step = 1
	}
	accW, accS := 0.0, 0.0
	for i := range t.Sizes {
		accW += t.weights[i]
		accS += float64(t.Sizes[i])
		if (i+1)%step == 0 || i == len(t.Sizes)-1 {
			out = append(out, CDFPoint{Rank: i + 1, ReqFrac: accW, SizeFrac: accS / total})
		}
	}
	return out
}

// FracAtRank reports the cumulative request and size fractions of the
// `rank` most popular files (the paper quotes e.g. "the 5000 most heavily
// requested files constituted 39% of the data and 95% of requests" for
// ECE).
func (t *Trace) FracAtRank(rank int) (reqFrac, sizeFrac float64) {
	if rank > len(t.Sizes) {
		rank = len(t.Sizes)
	}
	var w, s float64
	for i := 0; i < rank; i++ {
		w += t.weights[i]
		s += float64(t.Sizes[i])
	}
	return w, s / float64(t.DataBytes())
}

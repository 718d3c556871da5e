package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// minSamples is the fewest samples a reported median may rest on.
const minSamples = 7

// recorder collects what one round, or a whole run, measured.
type recorder struct {
	// timed holds the measured series. A round records one sample per
	// operation and, when it ends, keeps their mean: the operations of
	// a round differ (the second retune of a session does other work
	// than the first), whole rounds do not. A run pools the rounds and
	// reports the median. Series in pooled are latency distributions of
	// many like requests and keep every sample. speed says how a series
	// follows the machine's speed: +1 a duration, -1 a rate, absent
	// neither (a size, a count).
	timed  map[string][]float64
	pooled map[string]bool
	speed  map[string]float64
	// raw holds the series of timed as measured, before they were
	// scaled to the nominal machine speed; a run prints both medians.
	raw map[string][]float64
	// reference holds what depends only on the inputs — counts, cost
	// estimates, bytes allocated. A run takes them from the reference
	// round alone, whose inputs no seed changes, and reports their mean.
	reference map[string][]float64
	// derived holds metrics computed from the others when a run ends.
	derived map[string]float64
	// kernel holds the round's timings of the calibration kernel, and
	// open the samples recorded since the last of them.
	kernel []float64
	open   []openSample
	// kernelLoops sizes the calibration kernel; kernelSink keeps the
	// compiler from dropping its work.
	kernelLoops int
	kernelSink  float64

	attempted, failed int
	failures          []string
}

func newRecorder(kernelLoops int) *recorder {
	return &recorder{
		kernelLoops: kernelLoops,
		timed:       map[string][]float64{}, pooled: map[string]bool{}, speed: map[string]float64{},
		raw: map[string][]float64{}, reference: map[string][]float64{}, derived: map[string]float64{},
	}
}

// openSample is a sample not yet scaled to the nominal machine speed.
type openSample struct {
	name string
	at   int
}

func (r *recorder) sample(name string, v float64) {
	r.open = append(r.open, openSample{name, len(r.timed[name])})
	r.timed[name] = append(r.timed[name], v)
	r.raw[name] = append(r.raw[name], v)
}
func (r *recorder) count(name string, v float64) {
	r.reference[name] = append(r.reference[name], v)
}

// duration records a time span given in the unit the metric reports.
func (r *recorder) duration(name string, v float64) {
	r.speed[name] = 1
	r.sample(name, v)
}

func (r *recorder) seconds(name string, d time.Duration) { r.duration(name, d.Seconds()) }
func (r *recorder) millis(name string, d time.Duration)  { r.duration(name, d.Seconds()*1e3) }
func (r *recorder) micros(name string, d time.Duration)  { r.duration(name, d.Seconds()*1e6) }

// latency records one of many like requests, in microseconds.
func (r *recorder) latency(name string, d time.Duration) {
	r.pooled[name] = true
	r.micros(name, d)
}

// rate records n units of work done in d, per second.
func (r *recorder) rate(name string, n float64, d time.Duration) {
	r.speed[name] = -1
	r.sample(name, n/d.Seconds())
}

// The machines this runs on drift: the same code is up to 2x slower
// for a second or for a minute, then fast again (shared cores; no
// steal time is reported). So a round times a fixed kernel of ordinary
// Go work — map, allocation, pointer chasing, sort — before and after
// everything it measures, and each duration is scaled to the speed at
// which the two kernel timings around it average kernelNominal. Over
// ten runs of one seed this took the quartile spread of the run medians
// from 16-39% to 3-6%. The kernel shares no code with the program under
// test. Every reported median is printed with its unscaled twin.
const kernelNominal = 10 * time.Millisecond

// besideDaemonMax is by how many percent the kernel may be slower just
// before a daemon stops than just after, as the median over a traced
// run's rounds, before -agree objects: the kernel is also timed beside
// a live, idle daemon, and should a daemon ever work in the background,
// every duration scaled by such a timing would read too short.
const besideDaemonMax = 10

type kernelNode struct {
	key  string
	val  float64
	next *kernelNode
}

// calibrate collects garbage — so that the next operation starts from
// a clean heap, and so that the kernel's own allocation cannot start a
// collection whose cost would depend on the program's live heap — times
// the calibration kernel once, scales the samples recorded since the
// previous timing by the mean of the two, and returns the new one.
func (r *recorder) calibrate() float64 {
	runtime.GC()
	start := time.Now()
	nodes := make(map[string]*kernelNode, 1024)
	var head *kernelNode
	x := uint64(88172645463325252)
	for i := 0; i < r.kernelLoops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := strconv.FormatUint(x%20000, 10)
		n := nodes[k]
		if n == nil {
			n = &kernelNode{key: k, next: head}
			head = n
			nodes[k] = n
		}
		n.val += float64(x%1000) * 0.5
	}
	var all []*kernelNode
	for n := head; n != nil; n = n.next {
		all = append(all, n)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].val < all[j].val })
	r.kernelSink += all[0].val
	took := time.Since(start).Seconds() * 1e3

	around := took
	if n := len(r.kernel); n > 0 {
		around = (r.kernel[n-1] + took) / 2
	}
	r.kernel = append(r.kernel, took)
	r.scaleOpen(around)
	return took
}

// scaleOpen scales the open samples to the nominal machine speed, given
// what the kernel took around them.
func (r *recorder) scaleOpen(kernel float64) {
	factor := kernelNominal.Seconds() * 1e3 / kernel
	for _, o := range r.open {
		switch r.speed[o.name] {
		case 1:
			r.timed[o.name][o.at] *= factor
		case -1:
			r.timed[o.name][o.at] /= factor
		}
	}
	r.open = r.open[:0]
}

// endRound scales what was recorded after the round's last kernel
// timing (span self times, which belong to no one interval) by the
// median of them all, and reduces every series that is not a latency
// distribution to its mean.
func (r *recorder) endRound() {
	if len(r.kernel) > 0 {
		kernel := median(r.kernel)
		r.scaleOpen(kernel)
		r.timed["calibration.kernel_ms"], r.raw["calibration.kernel_ms"] = []float64{kernel}, []float64{kernel}
	}
	for name := range r.timed {
		if !r.pooled[name] {
			r.timed[name] = []float64{mean(r.timed[name])}
			r.raw[name] = []float64{mean(r.raw[name])}
		}
	}
}

// op counts one attempted operation or output check; a false ok fails
// it with the given reason.
func (r *recorder) op(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// merge folds one round into the run: the reference round gives the
// input-determined values and, being the first of the process, no
// timings; every later round gives timings only.
func (r *recorder) merge(round *recorder, reference bool) {
	r.attempted += round.attempted
	r.failed += round.failed
	r.failures = append(r.failures, round.failures...)
	if reference {
		r.reference = round.reference
		return
	}
	for k, v := range round.timed {
		r.timed[k] = append(r.timed[k], v...)
		r.raw[k] = append(r.raw[k], round.raw[k]...)
	}
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// allocDelta runs fn and returns the bytes it allocated. The count is
// process-wide, so it is only meaningful while nothing else runs.
func allocDelta(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile is the nearest-rank quantile of sorted xs (0 for empty input).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// maxSlices bounds how many time slices a tail estimate is split into.
const maxSlices = 10

// sliceTail estimates quantile q of latencies (in the order the requests
// were sent) robustly against rare stalls: it cuts the run, in send
// order, into as many equal slices as leave at least ten samples beyond q
// in each (at most maxSlices), and returns the median of the slices' q
// and the slice count.
func sliceTail(lat []float64, q float64) (float64, int) {
	k := int(float64(len(lat)) * (1 - q) / 10)
	k = max(1, min(k, maxSlices))
	var qs []float64
	for i := 0; i < k; i++ {
		s := append([]float64(nil), lat[i*len(lat)/k:(i+1)*len(lat)/k]...)
		sort.Float64s(s)
		qs = append(qs, quantile(s, q))
	}
	return median(qs), k
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

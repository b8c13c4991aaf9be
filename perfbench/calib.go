package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Host speed calibration.
//
// On a shared virtual machine the same pass can take twice as long
// from one run to the next, in CPU time as much as in wall time: a
// hypervisor that takes the processor away without reporting steal
// charges the lost time to whatever ran. No bound a regression check
// could use survives that. So every timing the benchmark bounds is
// expressed against a calibration chunk, a fixed piece of integer
// work that shares no code with the simulator, timed beside the
// measured work in the same process. A timing divided by the mean
// chunk time of its window, times calNominal, is in reference
// milliseconds ("ref_ms"): the time the work would take on a host
// where one chunk takes calNominal. A change to the simulator moves
// the measured work but not the chunk, so it shows in full.
const (
	calNominal = 10 * time.Millisecond
	// calRounds is about calNominal of work on a 2-vCPU Intel Xeon
	// virtual machine; the exact figure only sets the scale.
	calRounds = 2_300_000
	// calPieces is how many pieces one goroutine's share of a chunk
	// is cut into.
	calPieces = 10
	// calWindow is how many passes share one speed estimate: enough
	// chunks that their mean is steady, few enough to follow a host
	// whose speed drifts within a run.
	calWindow = 8
)

// calSink keeps the chunk's result alive so the compiler cannot drop
// the work.
var calSink atomic.Uint64

// calWork is the calibration chunk: splitmix64 rounds, each depending
// on the last, with no memory traffic and no allocation.
func calWork(rounds int) uint64 {
	z := uint64(1)
	for i := 0; i < rounds; i++ {
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	}
	return z
}

// calSample is what one calibration chunk cost: wall time, and the
// process's CPU time over the same interval.
type calSample struct{ wall, cpu time.Duration }

// calibrate runs par chunks' worth of work on par goroutines, par
// being the parallelism of the work it stands beside, and returns its
// cost. The work is cut into pieces the goroutines take in turn, as
// the evaluation's workers take jobs, so a processor the host slows
// does less of it; with a fixed share each, the chunk would wait for
// the slowest processor and overstate the slowdown of the work.
func calibrate(par int) calSample {
	start, cpu := now(), cpuTime()
	var taken atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for taken.Add(1) <= int64(par*calPieces) {
				calSink.Add(calWork(calRounds / calPieces))
			}
		}()
	}
	wg.Wait()
	return calSample{wall: now().Sub(start), cpu: cpuTime() - cpu}
}

// calibrateN runs n chunks in a row.
func calibrateN(par, n int) []calSample {
	out := make([]calSample, n)
	for i := range out {
		out[i] = calibrate(par)
	}
	return out
}

// hostSlowdown is how much slower than the reference the host ran
// the chunks: wall time, and CPU time per goroutine. The mean, not
// the median, because a chunk shorter than the hypervisor's time
// slice is either preempted or not, and only the mean weighs the two
// as the longer measured work feels them.
type hostSlowdown struct{ wall, cpu float64 }

func slowdownOf(samples []calSample, par int) hostSlowdown {
	if len(samples) == 0 {
		return hostSlowdown{wall: 1, cpu: 1}
	}
	var wall, cpu time.Duration
	for _, s := range samples {
		wall += s.wall
		cpu += s.cpu
	}
	n := float64(len(samples))
	return hostSlowdown{
		wall: float64(wall) / n / float64(calNominal),
		cpu:  float64(cpu) / n / float64(par) / float64(calNominal),
	}
}

// windowed divides each value by the slowdown of its window of
// calWindow consecutive values, measured by the chunks run beside
// them: cal[i] ran right after the work that took values[i]. pick
// chooses wall or CPU slowdown. A last window shorter than half of
// calWindow joins the one before it.
func windowed(values []float64, cal []calSample, par int, pick func(hostSlowdown) float64) []float64 {
	out := make([]float64, len(values))
	for lo := 0; lo < len(values); lo += calWindow {
		hi := min(lo+calWindow, len(values))
		if len(values)-hi < calWindow/2 {
			hi = len(values)
		}
		f := pick(slowdownOf(cal[lo:hi], par))
		for i := lo; i < hi; i++ {
			out[i] = values[i] / f
		}
		if hi == len(values) {
			break
		}
	}
	return out
}

func wallOf(s hostSlowdown) float64 { return s.wall }
func cpuOf(s hostSlowdown) float64  { return s.cpu }

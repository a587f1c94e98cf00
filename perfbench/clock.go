package main

import (
	"runtime"
	"syscall"
	"time"
)

// Timings are taken on two clocks. Wall time is what a user waits; the
// process's CPU time (user + system, all threads) is what the work costs.
// On a shared virtual machine the wall clock also counts time the
// hypervisor gives to other guests, which swung patents-mttkrp's solve
// between 1.7 s and 4.1 s while its CPU time stayed within 2.85–3.09 s.
// So set-up and work are bounded as CPU times, with wall times printed
// beside them. A top-K request is short enough that most requests see no
// steal, so its median wall latency is bounded directly.

// stamp is a point on both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuTime()} }

// since returns the wall and CPU time elapsed since s.
func (s stamp) since() (wall, cpu time.Duration) {
	n := now()
	return n.wall.Sub(s.wall), n.cpu - s.cpu
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupReps and setupMinWall size set-up timing: set-up runs at least
// setupReps times and until setupMinWall has passed, and setup_s is the
// median, so a set-up of a few milliseconds is still timed over many runs.
const (
	setupReps    = 3
	setupMinWall = 2 * time.Second
)

// timeSetup runs setup as described above and returns each run's CPU
// seconds. Before every run after the first, release drops the previous
// run's state (references, daemons, files), and a collection then frees
// it, both outside the timed region: every timed run starts from the same
// state, and the previous run's memory is not counted in this one's peak.
// Traced runs set up once.
func timeSetup(traced bool, release func(), setup func(i int) error) ([]float64, error) {
	var secs []float64
	begin := time.Now()
	for i := 0; i == 0 || !traced && (i < setupReps || time.Since(begin) < setupMinWall); i++ {
		if i > 0 {
			release()
		}
		collect()
		t0 := now()
		err := setup(i)
		_, cpu := t0.since()
		if err != nil {
			return secs, err
		}
		secs = append(secs, cpu.Seconds())
	}
	return secs, nil
}

// collect frees the previous round's garbage before a timed round, outside
// its timing. Without it, a round's garbage is still on the heap while the
// next round allocates, and the run's peak memory grows with the number of
// rounds that fit in its time.
func collect() { runtime.GC() }

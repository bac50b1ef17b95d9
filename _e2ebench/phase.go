package main

import (
	"fmt"
	"runtime"
	"time"
)

// tally is what every workload records, one entry per step (a fleet
// round, a live session, a durable batch), plus its correctness count.
type tally struct {
	setupS      []float64
	allocsPerOp []float64
	heapMB      []float64
	steps       int
	attempted   int
	failed      int
	errs        []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// heap records HeapAlloc after a GC, with the step's state still live.
func (t *tally) heap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heapMB = append(t.heapMB, float64(ms.HeapAlloc)/(1<<20))
}

func (t *tally) stats() *tally { return t }

// clear drops the per-step measurements (not the correctness counts).
func (t *tally) clear() {
	t.setupS, t.allocsPerOp, t.heapMB = nil, nil, nil
}

// stepper is one workload of a pass.
type stepper interface {
	// warm runs one untraced, unrecorded step: the first step in a
	// process pays for heap growth and first-touch page faults.
	warm() error
	step() error
	done()
	stats() *tally
}

// schedule interleaves the workloads' steps until the budget is spent:
// the next step always goes to the workload with the least time per
// weight so far, so each gets a fixed share of the pass and a slow
// stretch of the host hits every workload alike. Every workload runs at
// least its minimum number of steps.
func schedule(budget time.Duration, ws []stepper, weights []float64, mins []int) error {
	for _, w := range ws {
		if err := w.warm(); err != nil {
			return err
		}
	}
	spent := make([]time.Duration, len(ws))
	start := time.Now()
	for {
		next := -1
		for i, w := range ws {
			if w.stats().steps < mins[i] {
				next = i
				break
			}
		}
		if next < 0 {
			if time.Since(start) >= budget {
				break
			}
			for i := range ws {
				if next < 0 || float64(spent[i])/weights[i] < float64(spent[next])/weights[next] {
					next = i
				}
			}
		}
		t := time.Now()
		if err := ws[next].step(); err != nil {
			return err
		}
		ws[next].stats().steps++
		spent[next] += time.Since(t)
	}
	for _, w := range ws {
		w.done()
	}
	return nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// The fanout64-decode workload decodes one binary paper trace per pass
// into a 64-collector fleet: eight copies of the paper matrix at
// distinct triggers, so no two runs do the same work.
const (
	fanoutProfile = "GHOST(1)"
	fanoutCopies  = 8
	fanoutLimitMs = 2000 // a pass slower than this misses slo_frac
)

type fanout64 struct {
	encoded []byte // the binary trace, encoded once at set-up
	cfgs    []sim.Config
	events  int
}

func runFanout64(ctx context.Context, cfg runConfig) (*report, error) {
	return runPasses(ctx, cfg, "fanout64-decode", &fanout64{})
}

// fanoutTrace generates the workload's trace for seed.
func fanoutTrace(seed uint64) ([]dtbgc.Event, error) {
	p := dtbgc.WorkloadByName(fanoutProfile)
	p.Seed = deriveSeed(seed, 0)
	return p.Scale(matrixScale).Generate()
}

// fanoutConfigs is the 64-collector fleet, eight matrices whose
// triggers step by 2 KB.
func fanoutConfigs() []sim.Config {
	var cfgs []sim.Config
	for i := 0; i < fanoutCopies; i++ {
		trigger := uint64(matrixTrigger + i*2048)
		cfgs = append(cfgs, matrixConfigs(fmt.Sprintf("%s#%d", fanoutProfile, i), trigger, matrixMemMax, matrixTraceMax)...)
	}
	return cfgs
}

func (f *fanout64) prepare(seed uint64) error {
	events, err := fanoutTrace(seed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := dtbgc.WriteTrace(&buf, events); err != nil {
		return err
	}
	f.encoded = buf.Bytes()
	f.cfgs = fanoutConfigs()
	return nil
}

func (f *fanout64) reference(seed uint64) ([][]*dtbgc.Result, error) {
	events, err := fanoutTrace(seed)
	if err != nil {
		return nil, err
	}
	f.events = len(events)
	rs, err := simulateAll(events, fanoutConfigs())
	if err != nil {
		return nil, err
	}
	return [][]*dtbgc.Result{rs}, nil
}

func (f *fanout64) collectorEvents() float64 { return float64(f.events * fanoutCopies * 8) }

func (f *fanout64) limitMs() float64 { return fanoutLimitMs }

// parallelism: a pass decodes and replays on one goroutine.
func (f *fanout64) parallelism() int { return 1 }

// pass is the front door: StreamBatchSource into ReplayAllBatches.
func (f *fanout64) pass(ctx context.Context) ([][]*dtbgc.Result, error) {
	opts := make([]dtbgc.SimOptions, len(f.cfgs))
	for i, c := range f.cfgs {
		opts[i] = simOptions(c)
	}
	rs, err := dtbgc.ReplayAllBatches(ctx, dtbgc.StreamBatchSource(bytes.NewReader(f.encoded)), opts)
	if err != nil {
		return nil, err
	}
	return [][]*dtbgc.Result{rs}, nil
}

// tracedPass decodes with Reader.ReadBatch and feeds Fleet.FeedBatch
// directly, timing decode and replay apart.
func (f *fanout64) tracedPass(ctx context.Context, tr *tracer, req int64) ([][]*dtbgc.Result, passTrace, error) {
	start := now()
	root := tr.begin("pass", -1, req)
	pt := passTrace{runners: len(f.cfgs)}
	rs, err := func() ([]*dtbgc.Result, error) {
		tf, err := newTracedFleet(f.cfgs, tr, req)
		if err != nil {
			return nil, err
		}
		rd := trace.NewReader(bytes.NewReader(f.encoded))
		buf := make([]trace.Event, batchEvents)
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s := tr.begin("trace.decode", root, req)
			n, rerr := rd.ReadBatch(buf)
			tr.end(s)
			if n > 0 {
				if err := tf.feed(buf[:n], root); err != nil {
					return nil, err
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return nil, rerr
			}
		}
		pt.events, pt.batches = tf.events, tf.batches
		return tf.finish(), nil
	}()
	tr.end(root)
	pt.wallMs = float64(now().Sub(start)) / float64(time.Millisecond)
	return [][]*dtbgc.Result{rs}, pt, err
}

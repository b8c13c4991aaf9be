package main

import (
	"context"
	"fmt"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// setupRepeats is how many times a run sets its workload up before
// the timed phase; setup_s is the median of all set-ups. Each set-up
// runs between setupCalChunks calibration chunks before and as many
// after, which scale it to reference seconds. A pass workload also
// sets up again every setupEvery of its timed phase, so its set-ups
// sample the whole run: on a shared VM the speed of the same code
// shifts between levels that each last a few seconds.
const (
	setupRepeats   = 5
	setupCalChunks = 2
	setupEvery     = 2 * time.Second
)

// passWorkload is a workload of identical passes, each a cold
// evaluation of the same inputs. Results are grouped by trace, then
// by collector in matrix order.
type passWorkload interface {
	// prepare builds the inputs from seed; it is timed as set-up.
	prepare(seed uint64) error
	// reference computes every expected result on the solo per-event
	// path (dtbgc.Simulate). It is never timed.
	reference(seed uint64) ([][]*dtbgc.Result, error)
	// pass runs one evaluation through the program's front door.
	pass(ctx context.Context) ([][]*dtbgc.Result, error)
	// tracedPass runs the same evaluation driven layer by layer, with
	// spans around each layer's calls.
	tracedPass(ctx context.Context, tr *tracer, req int64) ([][]*dtbgc.Result, passTrace, error)
	// collectorEvents is Σ(trace events × collectors) of one pass.
	collectorEvents() float64
	// limitMs is the pass latency limit slo_frac counts against.
	limitMs() float64
	// parallelism is how many goroutines a pass keeps busy, and so
	// how many run each calibration chunk beside it.
	parallelism() int
}

// passTrace is what a traced pass reports besides its spans.
type passTrace struct {
	events  int       // trace events fed per fleet, summed over traces
	runners int       // collectors per fleet
	batches int       // FeedBatch calls on the measured fleets
	jobMs   []float64 // engine job durations (empty without a pool)
	wallMs  float64
}

// checkPass compares one pass's results with the reference.
func checkPass(rep *report, label string, got, want [][]*dtbgc.Result) {
	if len(got) != len(want) {
		rep.mismatch("%s: %d traces, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			rep.mismatch("%s: trace %d: %d results, want %d", label, i, len(got[i]), len(want[i]))
			continue
		}
		for j := range want[i] {
			if d := diffResults(got[i][j], want[i][j]); d != "" {
				rep.mismatch("%s: trace %d collector %s: %s", label, i, want[i][j].Collector, d)
			}
		}
	}
}

// countWork sums scavenges and traced bytes over a pass's results:
// exact counts that a host-only change must leave alone.
func countWork(results [][]*dtbgc.Result) (scavenges int, traced uint64) {
	for _, rs := range results {
		for _, r := range rs {
			scavenges += r.Collections
			traced += r.TracedTotalBytes
		}
	}
	return scavenges, traced
}

// runPasses measures a pass workload: references first (untimed),
// then setupRepeats timed set-ups, then passes until the timed phase
// has lasted cfg.seconds, with a set-up every setupEvery. Every pass
// is checked against the reference outside its timing.
func runPasses(ctx context.Context, cfg runConfig, name string, w passWorkload) (*report, error) {
	rep := newReport()
	want, err := w.reference(cfg.refSeed)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	par := w.parallelism()
	var setups, rawSetups []float64
	// setUp prepares the inputs and runs a warm-up pass (heap grown,
	// code paged in), checked like any other.
	setUp := func() error {
		cal := calibrateN(par, setupCalChunks)
		start := now()
		if err := w.prepare(cfg.seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		got, err := w.pass(ctx)
		raw := now().Sub(start).Seconds()
		if err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		cal = append(cal, calibrateN(par, setupCalChunks)...)
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/slowdownOf(cal, par).wall)
		checkPass(rep, "warm-up", got, want)
		return nil
	}
	for i := 0; i < setupRepeats; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	scav, traced := countWork(want)
	fmt.Fprintf(cfg.out, "counts %s scavenges=%d traced_bytes=%d collector_events=%.0f\n", name, scav, traced, w.collectorEvents())

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var plainMs, plainCPU, tracedMs []float64 // successful passes only
	var plainCal []calSample                  // the chunk run after each of them
	var samples []sample                      // every untraced pass, for slo_frac
	var traces []passTrace
	heap, steal := startHeapSampler(0), startSteal()
	phaseStart := now()
	nextSetup := phaseStart.Add(setupEvery)
	for k := 0; ; k++ {
		if !cfg.traced && now().After(nextSetup) {
			if err := setUp(); err != nil {
				return nil, err
			}
			heap.drop()
			nextSetup = now().Add(setupEvery)
		}
		elapsed := now().Sub(phaseStart).Seconds()
		// Run the full length, and longer (up to twice) if the pass
		// latencies are still too few for a p90 with ten samples beyond.
		if elapsed >= 2*cfg.seconds || (elapsed >= cfg.seconds && (cfg.traced || tailPercentile(len(plainMs)) >= 90)) {
			break
		}
		rep.attempted++
		var got [][]*dtbgc.Result
		if cfg.traced && k%2 == 1 {
			var pt passTrace
			got, pt, err = w.tracedPass(ctx, tr, int64(k))
			tracedMs = append(tracedMs, pt.wallMs)
			traces = append(traces, pt)
		} else {
			start, cpu := now(), cpuTime()
			got, err = w.pass(ctx)
			ms := float64(now().Sub(start)) / float64(time.Millisecond)
			if err == nil {
				plainMs = append(plainMs, ms)
				plainCPU = append(plainCPU, (cpuTime() - cpu).Seconds())
				if !cfg.traced {
					plainCal = append(plainCal, calibrate(par))
				}
			}
			samples = append(samples, sample{ms: ms, ok: err == nil})
		}
		heap.cut()
		if err != nil {
			rep.failed++
			rep.operationError("pass %d: %v", k, err)
			continue
		}
		checkPass(rep, fmt.Sprintf("pass %d", k), got, want)
	}
	peak := heap.peak()
	steal.print(cfg.out, name)

	if !cfg.traced {
		refMs := windowed(plainMs, plainCal, par, wallOf)
		refCPU := windowed(plainCPU, plainCal, par, cpuOf)
		slow := slowdownOf(plainCal, par)
		fmt.Fprintf(cfg.out, "samples %s passes=%d tail=p%g\n", name, len(plainMs), tailPercentile(len(plainMs)))
		fmt.Fprintf(cfg.out, "calibration %s chunks=%d wall_slowdown=%.4f cpu_slowdown=%.4f\n", name, len(plainCal), slow.wall, slow.cpu)
		fmt.Fprintf(cfg.out, "raw %s setup_s=%.4g cold_p50_ms=%.4g cold_p90_ms=%.4g collector_events_per_cpu_s=%.4g (host time, not bounded: see README)\n",
			name, median(rawSetups), median(plainMs), percentile(plainMs, 90), w.collectorEvents()/median(plainCPU))
		fmt.Fprintf(cfg.out, "latency %s cold_p90_ref_ms=%.4g (printed, not bounded: see README)\n", name, percentile(refMs, 90))
		rep.values["setup_s"] = median(setups)
		rep.values["heap_peak_bytes"] = peak
		rep.values["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
		rep.values["collector_events_per_ref_s"] = w.collectorEvents() / median(refCPU)
		rep.values["cold_p50_ref_ms"] = median(refMs)
		rep.values["slo_frac"] = sloFrac(samples, w.limitMs())
		return rep, nil
	}

	spans := tr.snapshot()
	if err := checkClosed(spans); err != nil {
		return nil, err
	}
	if path := spanFile(name, cfg.seed); path != "" {
		if err := tr.writeFile(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "spans %s written to %s (%d spans)\n", name, path, len(spans))
	}
	passLayerMetrics(rep, sumLayers(spans), traces)
	rep.values["sim.scavenges"] = float64(scav)
	rep.values["sim.traced_bytes"] = float64(traced)
	rep.values["bench.trace_overhead_frac"] = median(tracedMs)/median(plainMs) - 1
	return rep, nil
}

// passLayerMetrics turns the traced passes' span totals into per-layer
// metrics. The reference fleet's FeedBatch time stands for resolve;
// the measured fleet's FeedBatch time beyond it is apply plus
// scavenge, spread over every runner but the one the reference has.
func passLayerMetrics(rep *report, lt layerTimes, traces []passTrace) {
	var events, runnerEvents, batches float64
	var jobMax, idle []float64
	for _, pt := range traces {
		events += float64(pt.events)
		runnerEvents += float64(pt.events) * float64(pt.runners-1)
		batches += float64(pt.batches)
		if len(pt.jobMs) > 0 {
			sum, top := 0.0, 0.0
			for _, ms := range pt.jobMs {
				sum += ms
				top = max(top, ms)
			}
			jobMax = append(jobMax, top)
			idle = append(idle, 1-sum/(float64(matrixWorkers)*pt.wallMs))
		}
	}
	n := float64(len(traces))
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	resolve := ns(lt.total["sim.resolve"])
	feed := ns(lt.total["sim.feed"])
	collect := ns(lt.total["sim.scavenge"])
	rep.values["sim.resolve_ns_per_event"] = resolve / events
	rep.values["sim.apply_ns_per_runner_event"] = (feed - resolve) / runnerEvents
	rep.values["sim.collect_ms"] = collect / 1e6 / n
	rep.values["engine.batches"] = batches / n
	if gen, ok := lt.self["workload.generate"]; ok {
		rep.values["workload.generate_ns_per_event"] = ns(gen) / events
		// The ledger splits the work an untraced pass does: generation,
		// then the fleet's FeedBatch cut into resolve, apply and
		// scavenge. The reference fleet's own time is tracing overhead
		// and is left out.
		total := ns(gen) + feed
		rep.values["ledger.generate_share"] = ns(gen) / total
		rep.values["ledger.resolve_share"] = resolve / total
		rep.values["ledger.apply_share"] = (feed - resolve - collect) / total
		rep.values["ledger.scavenge_share"] = collect / total
	}
	if dec, ok := lt.total["trace.decode"]; ok {
		rep.values["trace.decode_ns_per_event"] = ns(dec) / events
	}
	if len(jobMax) > 0 {
		rep.values["engine.job_ms_max"] = median(jobMax)
		rep.values["engine.worker_idle_frac"] = median(idle)
	}
}

// collectProbe times each scavenge, from the policy's Decision to the
// completed Scavenge, as a span under the FeedBatch that ran it. One
// probe serves one fleet, whose runners all run on one goroutine.
type collectProbe struct {
	tr     *tracer
	req    int64
	parent int
	at     time.Time
}

func (p *collectProbe) RunStart(sim.RunStart) {}
func (p *collectProbe) Decision(sim.Decision) { p.at = now() }
func (p *collectProbe) Scavenge(sim.ScavengeEvent) {
	p.tr.add("sim.scavenge", p.at, now(), p.parent, p.req)
}
func (p *collectProbe) Progress(sim.Progress)   {}
func (p *collectProbe) RunFinish(sim.RunFinish) {}

// tracedFleet feeds each batch to the measured fleet and to a
// one-runner NoGC reference fleet, so the reference's FeedBatch time
// measures resolve alone.
type tracedFleet struct {
	tr         *tracer
	req        int64
	fleet, ref *sim.Fleet
	probe      *collectProbe
	events     int
	batches    int
}

func newTracedFleet(cfgs []sim.Config, tr *tracer, req int64) (*tracedFleet, error) {
	probe := &collectProbe{tr: tr, req: req, parent: -1}
	withProbe := make([]sim.Config, len(cfgs))
	for i, c := range cfgs {
		c.Probe = probe
		withProbe[i] = c
	}
	fleet, err := sim.NewFleet(withProbe)
	if err != nil {
		return nil, err
	}
	ref, err := sim.NewFleet([]sim.Config{{Mode: sim.ModeNoGC}})
	if err != nil {
		return nil, err
	}
	return &tracedFleet{tr: tr, req: req, fleet: fleet, ref: ref, probe: probe}, nil
}

// feed applies one batch to both fleets, each inside its own span.
func (t *tracedFleet) feed(batch []trace.Event, parent int) error {
	s := t.tr.begin("sim.resolve", parent, t.req)
	err := t.ref.FeedBatch(batch)
	t.tr.end(s)
	if err != nil {
		return fmt.Errorf("reference fleet: %w", err)
	}
	s = t.tr.begin("sim.feed", parent, t.req)
	t.probe.parent = s
	err = t.fleet.FeedBatch(batch)
	t.tr.end(s)
	t.events += len(batch)
	t.batches++
	return err
}

// finish closes both fleets and returns the measured fleet's results.
func (t *tracedFleet) finish() []*dtbgc.Result {
	t.ref.Finish()
	return t.fleet.Finish()
}

// simOptions is the facade form of a sim.Config, for dtbgc.Simulate
// and dtbgc.ReplayAll. It covers the fields the workloads set.
func simOptions(c sim.Config) dtbgc.SimOptions {
	return dtbgc.SimOptions{
		Policy:       c.Policy,
		NoGC:         c.Mode == sim.ModeNoGC,
		LiveOracle:   c.Mode == sim.ModeLive,
		TriggerBytes: c.TriggerBytes,
		Label:        c.Label,
	}
}

// matrixConfigs is the paper's eight-collector matrix over one trace,
// as the evaluation front door builds it: the six Table-1 policies at
// the given trigger, then the NoGC and Live baselines, labelled
// "name/collector".
func matrixConfigs(name string, trigger, memMax, traceMax uint64) []sim.Config {
	policies := []dtbgc.Policy{
		dtbgc.FullPolicy(), dtbgc.FixedPolicy(1), dtbgc.FixedPolicy(4),
		dtbgc.MemoryPolicy(memMax), dtbgc.FeedMedPolicy(traceMax), dtbgc.DtbFMPolicy(traceMax),
	}
	cfgs := make([]sim.Config, 0, len(policies)+2)
	for _, p := range policies {
		cfgs = append(cfgs, sim.Config{Mode: sim.ModePolicy, Policy: p, TriggerBytes: trigger, Label: name + "/" + p.Name()})
	}
	return append(cfgs,
		sim.Config{Mode: sim.ModeNoGC, Label: name + "/NoGC"},
		sim.Config{Mode: sim.ModeLive, Label: name + "/Live"})
}

// simulateAll runs every config solo over events: the reference path.
func simulateAll(events []dtbgc.Event, cfgs []sim.Config) ([]*dtbgc.Result, error) {
	out := make([]*dtbgc.Result, len(cfgs))
	for i, c := range cfgs {
		res, err := dtbgc.Simulate(events, simOptions(c))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Label, err)
		}
		out[i] = res
	}
	return out, nil
}

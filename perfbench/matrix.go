package main

import (
	"context"
	"fmt"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// The paper-matrix workload is the evaluation behind dtbtables at the
// repository's shared bench scale: six paper profiles, scaled, each
// replayed once against the eight-collector matrix on a pool of two
// workers.
const (
	matrixScale    = 0.05
	matrixTrigger  = 51 * 1024
	matrixMemMax   = 150 * 1024
	matrixTraceMax = 10 * 1024
	matrixWorkers  = 2
	matrixLimitMs  = 2000 // a pass slower than this misses slo_frac
	batchEvents    = 4096 // events per FeedBatch, as the replay engine batches
)

type paperMatrix struct {
	profiles []dtbgc.Workload // seeded and scaled
	cfgs     [][]sim.Config   // per profile, matrix order
	events   int              // trace events per pass, all profiles
}

func runPaperMatrix(ctx context.Context, cfg runConfig) (*report, error) {
	rep, err := runPasses(ctx, cfg, "paper-matrix", &paperMatrix{})
	if err != nil || !cfg.traced {
		return rep, err
	}
	// Allocations cannot be told apart by span, so the generator's are
	// counted on a separate generate-only pass over each profile.
	var allocs, events float64
	for _, p := range seededProfiles(cfg.seed) {
		_, a, n, err := generateCost(p)
		if err != nil {
			return nil, err
		}
		allocs += a
		events += float64(n)
	}
	rep.values["workload.allocs_per_event"] = allocs / events
	printLedger(cfg, rep)
	return rep, nil
}

// seededProfiles returns the six paper profiles with seeds derived
// from seed, scaled to the bench size.
func seededProfiles(seed uint64) []dtbgc.Workload {
	ps := dtbgc.Workloads()
	for i := range ps {
		ps[i].Seed = deriveSeed(seed, i)
		ps[i] = ps[i].Scale(matrixScale)
	}
	return ps
}

func (m *paperMatrix) prepare(seed uint64) error {
	m.profiles = seededProfiles(seed)
	m.cfgs = make([][]sim.Config, len(m.profiles))
	for i, p := range m.profiles {
		m.cfgs[i] = matrixConfigs(p.Name, matrixTrigger, matrixMemMax, matrixTraceMax)
	}
	return nil
}

func (m *paperMatrix) reference(seed uint64) ([][]*dtbgc.Result, error) {
	m.events = 0
	var want [][]*dtbgc.Result
	for _, p := range seededProfiles(seed) {
		events, err := p.Generate()
		if err != nil {
			return nil, err
		}
		m.events += len(events)
		rs, err := simulateAll(events, matrixConfigs(p.Name, matrixTrigger, matrixMemMax, matrixTraceMax))
		if err != nil {
			return nil, err
		}
		want = append(want, rs)
	}
	return want, nil
}

func (m *paperMatrix) collectorEvents() float64 { return float64(m.events * len(m.cfgs[0])) }

func (m *paperMatrix) limitMs() float64 { return matrixLimitMs }

// parallelism: the evaluation runs on matrixWorkers workers.
func (m *paperMatrix) parallelism() int { return matrixWorkers }

// pass is the front door: dtbgc.RunPaperEvaluationContext.
func (m *paperMatrix) pass(ctx context.Context) ([][]*dtbgc.Result, error) {
	// Profiles are pre-scaled, so the evaluation runs at scale 1.
	ev, err := dtbgc.RunPaperEvaluationContext(ctx, dtbgc.EvalOptions{
		Scale:         1,
		TriggerBytes:  matrixTrigger,
		MemMaxBytes:   matrixMemMax,
		TraceMaxBytes: matrixTraceMax,
		Profiles:      m.profiles,
		Workers:       matrixWorkers,
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*dtbgc.Result, len(ev.Runs))
	for i, run := range ev.Runs {
		for _, c := range m.cfgs[i] {
			out[i] = append(out[i], run.Results[collectorName(c)])
		}
		if len(run.Results) != len(m.cfgs[i]) {
			return nil, fmt.Errorf("%s: %d results, want %d", run.Workload.Name, len(run.Results), len(m.cfgs[i]))
		}
	}
	return out, nil
}

// collectorName is the name a Result carries for config c.
func collectorName(c sim.Config) string {
	switch c.Mode {
	case sim.ModeNoGC:
		return "NoGC"
	case sim.ModeLive:
		return "Live"
	}
	return c.Policy.Name()
}

// tracedPass drives the same six jobs layer by layer: engine.RunJobs
// schedules them, GenerateTo feeds 4096-event batches, and
// Fleet.FeedBatch applies them, so generation and replay are timed
// apart.
func (m *paperMatrix) tracedPass(ctx context.Context, tr *tracer, req int64) ([][]*dtbgc.Result, passTrace, error) {
	start := now()
	root := tr.begin("pass", -1, req)
	out := make([][]*dtbgc.Result, len(m.profiles))
	fleets := make([]*tracedFleet, len(m.profiles))
	jobMs := make([]float64, len(m.profiles))
	jobs := make([]engine.Job, len(m.profiles))
	for i, p := range m.profiles {
		jobs[i] = func(ctx context.Context) error {
			jobStart := now()
			job := tr.begin("engine.job", root, req)
			defer func() {
				tr.end(job)
				jobMs[i] = float64(now().Sub(jobStart)) / float64(time.Millisecond)
			}()
			tf, err := newTracedFleet(m.cfgs[i], tr, req)
			if err != nil {
				return err
			}
			fleets[i] = tf
			gen := tr.begin("workload.generate", job, req)
			batch := make([]trace.Event, 0, batchEvents)
			flush := func() error {
				if err := ctx.Err(); err != nil {
					return err
				}
				err := tf.feed(batch, gen)
				batch = batch[:0]
				return err
			}
			err = p.GenerateTo(func(e trace.Event) error {
				batch = append(batch, e)
				if len(batch) == cap(batch) {
					return flush()
				}
				return nil
			})
			if err == nil && len(batch) > 0 {
				err = flush()
			}
			tr.end(gen)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			out[i] = tf.finish()
			return nil
		}
	}
	err := engine.RunJobs(ctx, matrixWorkers, jobs)
	tr.end(root)
	pt := passTrace{runners: len(m.cfgs[0]), jobMs: jobMs, wallMs: float64(now().Sub(start)) / float64(time.Millisecond)}
	for _, tf := range fleets {
		if tf != nil {
			pt.events += tf.events
			pt.batches += tf.batches
		}
	}
	return out, pt, err
}

// printLedger sets the traced shares beside the profile ledger in
// ROADMAP.md (EvalFullMatrix CPU profile, 2 CPUs) and reports each
// gap. The gaps are findings, not targets.
func printLedger(cfg runConfig, rep *report) {
	rows := []struct {
		layer, metric string
		roadmap       float64
		note          string
	}{
		{"generator", "ledger.generate_share", 0.30, "≈30%"},
		{"resolve", "ledger.resolve_share", 0.32, "≈32%"},
		{"apply", "ledger.apply_share", 0.29, "≈29%"},
		{"scavenge", "ledger.scavenge_share", 0.05, "<5%"},
	}
	fmt.Fprintln(cfg.out, "ledger paper-matrix layer  traced-share  roadmap  gap(points)")
	for _, r := range rows {
		v := rep.values[r.metric]
		fmt.Fprintf(cfg.out, "ledger paper-matrix %-9s %10.1f%%  %7s  %+6.1f\n", r.layer, 100*v, r.note, 100*(v-r.roadmap))
	}
	fmt.Fprintln(cfg.out, "ledger note: the roadmap shares are CPU-profile samples; these are wall self times of spans around the layer calls, on the same 8-collector matrix at scale 0.05")
}

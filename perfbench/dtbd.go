package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/daemon"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// The dtbd-mixed workload serves an open-loop request mix from an
// in-process daemon over a unix socket.
const (
	dtbdRate       = 100.0 // requests per second, Poisson arrivals
	dtbdConns      = 2     // connections in flight at most
	dtbdWorkers    = 2     // daemon worker slots
	dtbdLimitMs    = 100.0 // slo_frac latency limit
	dtbdPoolTraces = 8
	// dtbdTraceAllocs sizes every cold eval's trace, pooled or named,
	// to about this many allocations (twice as many events), so cold
	// service times form one tight mode instead of a spread as wide as
	// the paper profiles' 28x range of lengths.
	dtbdTraceAllocs = 15000
	dtbdHotKeys     = 12
	dtbdTrigger     = 51 * 1024
	// dtbdTapeShare sets the tape cache below the pool's decoded size,
	// so evictions, 404s and re-uploads happen during the run. At 0.75
	// about half the cold evals were tape hits and the cold p50 fell in
	// the gap between them and the slower named and re-uploaded evals,
	// where a small shift moved it far; at 0.875 it falls among the
	// tape hits.
	dtbdTapeShare = 0.875
	// dtbdEventCost is the daemon's charge per decoded event.
	dtbdEventCost = 64
	// dtbdSegments splits the timed phase. Before the first segment
	// and after each one the load pauses (requests in flight finish)
	// for dtbdCalChunks calibration chunks; a segment's latencies are
	// scaled by the chunks on either side of it.
	dtbdSegments  = 20
	dtbdCalChunks = 3
	// dtbdSetupEvery segments, a spare daemon is set up and stopped
	// between two segments, for setup_s.
	dtbdSetupEvery = 4
	// dtbdHeapWindow is the heap sampler's window: heap_peak_bytes is
	// the median of the windows' peaks. A window spans several
	// collection cycles, so each one holds a cycle's peak; at 500 ms
	// some did not, and ten runs spread by 0.12.
	dtbdHeapWindow = 2 * time.Second
)

// The request mix per block of mixBlock requests: 60% repeats of a
// warmed hot key, 25% fresh keys on uploaded traces, 10% fresh keys on
// workload-named evals, 5% trace uploads.
const (
	mixBlock  = 20
	mixMemo   = 12
	mixCold   = 5
	mixNamed  = 2
	mixUpload = 1
)

// mixOrder returns one block of request kinds in a random order.
func mixOrder(r *xrand.Rand) []reqKind {
	block := make([]reqKind, 0, mixBlock)
	for _, k := range []struct {
		kind reqKind
		n    int
	}{{kindMemo, mixMemo}, {kindCold, mixCold}, {kindNamed, mixNamed}, {kindUpload, mixUpload}} {
		for i := 0; i < k.n; i++ {
			block = append(block, k.kind)
		}
	}
	r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

var dtbdPolicies = []string{"full", "fixed1", "fixed4", "dtbmem:150k", "feedmed:10k", "dtbfm:10k"}

type reqKind int

const (
	kindMemo reqKind = iota
	kindCold
	kindNamed
	kindUpload
)

// dtbdReq is one scheduled request.
type dtbdReq struct {
	kind   reqKind
	trace  int    // pool index (memo, cold, upload)
	policy int    // dtbdPolicies index
	named  int    // paper profile index (named)
	seed   uint64 // policy_seed: a fresh key for cold and named evals
}

// dtbdOutcome is what one request observed.
type dtbdOutcome struct {
	ok        bool
	source    string
	serviceMs float64
	evalMs    float64 // the final Eval call alone, client side
	respBytes int
	retried   bool
	events    int // trace events replayed by a cold eval
}

// evalScale is the scale that gives profile p about dtbdTraceAllocs
// allocations.
func evalScale(p dtbgc.Workload) float64 {
	return dtbdTraceAllocs * p.MeanObject / float64(p.TotalBytes)
}

// poolTraces generates the trace pool for seed: paper profiles in
// turn, each with its own derived seed.
func poolTraces(seed uint64) ([][]dtbgc.Event, error) {
	profiles := dtbgc.Workloads()
	traces := make([][]dtbgc.Event, dtbdPoolTraces)
	for i := range traces {
		w := profiles[i%len(profiles)]
		w.Seed = deriveSeed(seed, 100+i)
		events, err := w.Scale(evalScale(w)).Generate()
		if err != nil {
			return nil, err
		}
		traces[i] = events
	}
	return traces, nil
}

// dtbdPool is the trace pool as the client holds it: encoded, with
// the digest and event count the daemon must answer an upload with.
type dtbdPool struct {
	encoded [][]byte
	digests []string
	counts  []int
	cost    int64 // the daemon's decoded-size charge for the whole pool
}

func encodePool(traces [][]dtbgc.Event) (*dtbdPool, error) {
	p := &dtbdPool{}
	for _, events := range traces {
		var buf bytes.Buffer
		if err := dtbgc.WriteTrace(&buf, events); err != nil {
			return nil, err
		}
		digest, _, err := dtbgc.DigestTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		p.encoded = append(p.encoded, buf.Bytes())
		p.digests = append(p.digests, digest)
		p.counts = append(p.counts, len(events))
		p.cost += int64(len(events)) * dtbdEventCost
	}
	return p, nil
}

// dtbdRefs are the expected results: the direct library result for
// each normalized request shape and its json.Marshal bytes. Pure
// policies ignore policy_seed, so one reference serves every fresh key.
type dtbdRefs struct {
	trace  [][]refEntry // [pool][policy]
	named  [][]refEntry // [profile][policy]
	events []int        // events per named profile
}

type refEntry struct {
	res  *dtbgc.Result
	json []byte
}

func refOptions(policy string) (dtbgc.SimOptions, error) {
	p, err := dtbgc.ParsePolicy(policy)
	if err != nil {
		return dtbgc.SimOptions{}, err
	}
	return dtbgc.SimOptions{Policy: p, TriggerBytes: dtbdTrigger}, nil
}

func newRefs(traces [][]dtbgc.Event) (*dtbdRefs, error) {
	r := &dtbdRefs{}
	row := func(events []dtbgc.Event) ([]refEntry, error) {
		var out []refEntry
		for _, pol := range dtbdPolicies {
			opts, err := refOptions(pol)
			if err != nil {
				return nil, err
			}
			res, err := dtbgc.Simulate(events, opts)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			out = append(out, refEntry{res: res, json: b})
		}
		return out, nil
	}
	for _, events := range traces {
		rs, err := row(events)
		if err != nil {
			return nil, err
		}
		r.trace = append(r.trace, rs)
	}
	for _, w := range dtbgc.Workloads() {
		events, err := w.Scale(evalScale(w)).Generate()
		if err != nil {
			return nil, err
		}
		r.events = append(r.events, len(events))
		rs, err := row(events)
		if err != nil {
			return nil, err
		}
		r.named = append(r.named, rs)
	}
	return r, nil
}

// hotKey is a warmed memo key: a pool trace and a policy.
type hotKey struct{ trace, policy int }

// dtbdSchedule draws the arrivals and the request mix from seed.
func dtbdSchedule(seed uint64, seconds float64) ([]time.Duration, []dtbdReq, []hotKey) {
	r := xrand.New(deriveSeed(seed, 1000))
	// Every policy has the same share of the hot keys, each on a
	// different trace, so warming them costs alike from seed to seed.
	traces := r.Perm(dtbdPoolTraces)
	hot := make([]hotKey, dtbdHotKeys)
	for i := range hot {
		hot[i] = hotKey{trace: traces[i%dtbdPoolTraces], policy: i % len(dtbdPolicies)}
	}
	// A Poisson process conditioned on its count: rate·seconds arrival
	// times drawn uniformly and sorted. Fixing the count keeps runs of
	// different seeds the same length of work.
	n := int(dtbdRate * seconds)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(r.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	// The mix is stratified: each block of mixBlock requests holds the
	// exact shares, in a shuffled order, and cold and named evals deal
	// out every trace-policy or workload-policy pair before repeating
	// one, so every seed asks for the same work in a different order.
	coldDeck := &deck{r: r, na: dtbdPoolTraces, nb: len(dtbdPolicies)}
	namedDeck := &deck{r: r, na: len(dtbgc.Workloads()), nb: len(dtbdPolicies)}
	reqs := make([]dtbdReq, n)
	block := make([]reqKind, 0, mixBlock)
	for i := range reqs {
		if len(block) == 0 {
			block = mixOrder(r)
		}
		q := dtbdReq{kind: block[0]}
		block = block[1:]
		switch q.kind {
		case kindMemo:
			h := hot[r.Intn(len(hot))]
			q.trace, q.policy = h.trace, h.policy
		case kindCold:
			q.trace, q.policy = coldDeck.deal()
		case kindNamed:
			q.named, q.policy = namedDeck.deal()
		case kindUpload:
			q.trace = r.Intn(dtbdPoolTraces)
		}
		if q.kind == kindCold || q.kind == kindNamed {
			q.seed = uint64(i + 1) // a key no other request has; hot keys use 0
		}
		reqs[i] = q
	}
	return due, reqs, hot
}

// deck deals the pairs (a, b), a < na and b < nb, in a seeded order,
// each once before any is dealt again.
type deck struct {
	r      *xrand.Rand
	na, nb int
	cards  []int
}

func (d *deck) deal() (a, b int) {
	if len(d.cards) == 0 {
		d.cards = d.r.Perm(d.na * d.nb)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c / d.nb, c % d.nb
}

// dtbdServer is one running daemon with its client.
type dtbdServer struct {
	srv  *daemon.Server
	cl   *daemon.Client
	sock string
}

func startServer(pool *dtbdPool, k int) (*dtbdServer, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	// A relative path keeps the socket inside the working directory
	// and short of the unix-socket path limit.
	sock := fmt.Sprintf(".bench_build/dtbd-%d-%d.sock", os.Getpid(), k)
	if err := os.Remove(sock); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	srv := daemon.NewServer(daemon.Config{
		Workers:        dtbdWorkers,
		TapeCacheBytes: int64(float64(pool.cost) * dtbdTapeShare),
		MemoEntries:    1 << 16, // every key of a run fits: only the tape cache evicts
	})
	srv.Start(ln)
	return &dtbdServer{srv: srv, cl: daemon.NewClient("unix:" + sock), sock: sock}, nil
}

func (s *dtbdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if rerr := os.Remove(s.sock); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
		err = rerr
	}
	return err
}

// evalReq builds the wire request for q.
func evalReq(pool *dtbdPool, q dtbdReq) *daemon.EvalRequest {
	req := &daemon.EvalRequest{Policy: dtbdPolicies[q.policy], TriggerBytes: dtbdTrigger, PolicySeed: q.seed}
	if q.kind == kindNamed {
		w := dtbgc.Workloads()[q.named]
		req.Workload = w.Name
		req.Scale = evalScale(w)
	} else {
		req.TraceDigest = pool.digests[q.trace]
	}
	return req
}

// evalWithUpload evaluates req, uploading the trace and retrying once
// when the daemon has evicted it.
func evalWithUpload(ctx context.Context, cl *daemon.Client, tr *tracer, parent int, id int64, req *daemon.EvalRequest, body []byte, out *dtbdOutcome) (*daemon.EvalResponse, error) {
	s := tr.begin("dtbd.eval", parent, id)
	start := now()
	resp, err := cl.Eval(ctx, req)
	out.evalMs = float64(now().Sub(start)) / float64(time.Millisecond)
	tr.end(s)
	var unknown *daemon.UnknownTraceError
	if !errors.As(err, &unknown) || body == nil {
		return resp, err
	}
	out.retried = true
	s = tr.begin("dtbd.retry-upload", parent, id)
	_, err = cl.UploadTrace(ctx, bytes.NewReader(body))
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("re-upload: %w", err)
	}
	s = tr.begin("dtbd.retry-eval", parent, id)
	start = now()
	resp, err = cl.Eval(ctx, req)
	out.evalMs = float64(now().Sub(start)) / float64(time.Millisecond)
	tr.end(s)
	return resp, err
}

// dtbdSetup starts a daemon, uploads the pool and warms the hot keys.
func dtbdSetup(ctx context.Context, seed uint64, hot []hotKey, k int) (*dtbdServer, *dtbdPool, error) {
	traces, err := poolTraces(seed)
	if err != nil {
		return nil, nil, err
	}
	pool, err := encodePool(traces)
	if err != nil {
		return nil, nil, err
	}
	s, err := startServer(pool, k)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*dtbdServer, *dtbdPool, error) {
		_ = s.stop() // the set-up error is the one worth reporting
		return nil, nil, err
	}
	if err := s.cl.Health(ctx); err != nil {
		return fail(err)
	}
	for _, body := range pool.encoded {
		if _, err := s.cl.UploadTrace(ctx, bytes.NewReader(body)); err != nil {
			return fail(err)
		}
	}
	for _, h := range hot {
		q := dtbdReq{kind: kindMemo, trace: h.trace, policy: h.policy}
		var out dtbdOutcome
		if _, err := evalWithUpload(ctx, s.cl, nil, -1, 0, evalReq(pool, q), pool.encoded[h.trace], &out); err != nil {
			return fail(fmt.Errorf("warming hot key: %w", err))
		}
	}
	return s, pool, nil
}

func runDtbdMixed(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	refTraces, err := poolTraces(cfg.refSeed)
	if err != nil {
		return nil, err
	}
	refs, err := newRefs(refTraces)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	due, reqs, hot := dtbdSchedule(cfg.seed, cfg.seconds)

	var setups, rawSetups []float64
	// setUp starts and readies daemon number k, timed between
	// calibration chunks.
	setUp := func(k int) (*dtbdServer, *dtbdPool, error) {
		cal := calibrateN(1, setupCalChunks)
		start := now()
		s, pool, err := dtbdSetup(ctx, cfg.seed, hot, k)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		raw := now().Sub(start).Seconds()
		cal = append(cal, calibrateN(1, setupCalChunks)...)
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/slowdownOf(cal, 1).wall)
		return s, pool, nil
	}
	var s *dtbdServer
	var pool *dtbdPool
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		if s, pool, err = setUp(i); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = s.stop() // an error return is already under way
		}
	}()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	before, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	outs := make([]dtbdOutcome, len(reqs))
	timings := make([]timing, len(reqs))
	segOf := make([]int, len(reqs))
	segCPU := make([]float64, dtbdSegments)
	bursts := [][]calSample{}
	wall, cpu := 0.0, 0.0
	heap, steal := startHeapSampler(dtbdHeapWindow), startSteal()
	bursts = append(bursts, calibrateN(1, dtbdCalChunks))
	segLen := time.Duration(cfg.seconds * float64(time.Second) / dtbdSegments)
	lo := 0
	for k := 0; k < dtbdSegments; k++ {
		base := time.Duration(k) * segLen
		hi := lo
		for hi < len(due) && (due[hi] < base+segLen || k == dtbdSegments-1) {
			hi++
		}
		segDue := make([]time.Duration, hi-lo)
		for j := range segDue {
			segDue[j] = due[lo+j] - base
			segOf[lo+j] = k
		}
		start, cpu0 := now(), cpuTime()
		ts := openLoop(segDue, dtbdConns, func(j int) func() {
			i := lo + j
			return dtbdDo(ctx, s.cl, tr, pool, refs, reqs[i], int64(i), &outs[i], rep)
		})
		segCPU[k] = (cpuTime() - cpu0).Seconds()
		wall += now().Sub(start).Seconds()
		cpu += segCPU[k]
		copy(timings[lo:hi], ts)
		bursts = append(bursts, calibrateN(1, dtbdCalChunks))
		lo = hi
		if !cfg.traced && (k+1)%dtbdSetupEvery == 0 {
			// A spare daemon, set up and stopped between segments so
			// set-ups sample the whole run.
			spare, _, err := setUp(setupRepeats + k)
			if err != nil {
				return nil, err
			}
			if err := spare.stop(); err != nil {
				return nil, err
			}
			runtime.GC() // the spare's heap is no part of the next window's peak
			heap.drop()
		}
	}
	peak := heap.peak()
	// A segment's slowdown is that of the bursts on either side of it.
	segSlow := make([]hostSlowdown, dtbdSegments)
	refCPU := 0.0
	for k := range segSlow {
		segSlow[k] = slowdownOf(append(append([]calSample(nil), bursts[k]...), bursts[k+1]...), 1)
		refCPU += segCPU[k] / segSlow[k].cpu
	}
	var allCal []calSample
	for _, b := range bursts {
		allCal = append(allCal, b...)
	}
	steal.print(cfg.out, "dtbd-mixed")
	after, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	if after.MemoHits+after.ColdEvals != after.EvalsServed {
		rep.mismatch("daemon metrics: memo_hits %d + cold_evals %d != evals_served %d", after.MemoHits, after.ColdEvals, after.EvalsServed)
	}

	var coldMs, coldRefMs, memoMs, uploadMs, lateMs []float64
	var svc = map[string][]float64{}
	var transport, respBytes []float64
	samples := make([]sample, len(reqs))
	replayed := 0.0
	retries := 0
	for i, t := range timings {
		o := outs[i]
		rep.attempted++
		if !o.ok {
			rep.failed++
		}
		samples[i] = sample{ms: t.latencyMs(), ok: o.ok}
		lateMs = append(lateMs, t.lateMs())
		if o.retried {
			retries++
		}
		if !o.ok {
			continue
		}
		switch {
		case reqs[i].kind == kindUpload:
			uploadMs = append(uploadMs, t.latencyMs())
			continue
		case o.source == "memo":
			memoMs = append(memoMs, t.latencyMs())
		default:
			coldMs = append(coldMs, t.latencyMs())
			coldRefMs = append(coldRefMs, t.latencyMs()/segSlow[segOf[i]].wall)
			replayed += float64(o.events)
		}
		svc[o.source] = append(svc[o.source], o.serviceMs)
		transport = append(transport, o.evalMs-o.serviceMs)
		respBytes = append(respBytes, float64(o.respBytes))
	}
	busy := 0.0
	for _, ms := range svc["tape"] {
		busy += ms
	}
	for _, ms := range svc["cold"] {
		busy += ms
	}
	fmt.Fprintf(cfg.out, "samples dtbd-mixed requests=%d cold=%d (tail p%g) memo=%d (tail p%g) uploads=%d retries=%d wall_s=%.3f cpu_s=%.3f worker_busy=%.2f\n",
		len(reqs), len(coldMs), tailPercentile(len(coldMs)), len(memoMs), tailPercentile(len(memoMs)), len(uploadMs), retries, wall, cpu, busy/1000/(dtbdWorkers*wall))
	slow := slowdownOf(allCal, 1)
	fmt.Fprintf(cfg.out, "calibration dtbd-mixed chunks=%d wall_slowdown=%.4f cpu_slowdown=%.4f\n", len(allCal), slow.wall, slow.cpu)
	fmt.Fprintf(cfg.out, "raw dtbd-mixed setup_s=%.4g cold_p50_ms=%.4g collector_events_per_cpu_s=%.4g (host time, not bounded: see README)\n",
		median(rawSetups), median(coldMs), replayed/cpu)
	fmt.Fprintf(cfg.out, "latency dtbd-mixed cold_p90_ref_ms=%.4g cold_p25_ms=%.4g cold_p75_ms=%.4g cold_p90_ms=%.4g memo_p50_ms=%.4g memo_p99_ms=%.4g upload_p50_ms=%.4g late_p99_ms=%.4g\n",
		percentile(coldRefMs, 90), percentile(coldMs, 25), percentile(coldMs, 75), percentile(coldMs, 90), median(memoMs), percentile(memoMs, 99), median(uploadMs), percentile(lateMs, 99))
	scav, traced := 0, uint64(0)
	for i := range reqs {
		if o := outs[i]; o.ok && reqs[i].kind != kindUpload {
			res := refs.lookup(reqs[i]).res
			scav += res.Collections
			traced += res.TracedTotalBytes
		}
	}
	fmt.Fprintf(cfg.out, "counts dtbd-mixed scavenges=%d traced_bytes=%d collector_events=%.0f\n", scav, traced, replayed)

	if !cfg.traced {
		rep.values["setup_s"] = median(setups)
		rep.values["heap_peak_bytes"] = peak
		rep.values["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
		rep.values["collector_events_per_ref_s"] = replayed / refCPU
		rep.values["cold_p50_ref_ms"] = median(coldRefMs)
		rep.values["slo_frac"] = sloFrac(samples, dtbdLimitMs)
	} else {
		rep.values["daemon.memo_p50_ms"] = median(memoMs)
		rep.values["daemon.memo_p99_ms"] = percentile(memoMs, 99)
		rep.values["daemon.upload_p50_ms"] = median(uploadMs)
		rep.values["daemon.service_ms_p50.memo"] = median(svc["memo"])
		rep.values["daemon.service_ms_p50.tape"] = median(svc["tape"])
		rep.values["daemon.service_ms_p50.cold"] = median(svc["cold"])
		rep.values["daemon.transport_ms_p50"] = median(transport)
		rep.values["daemon.response_bytes_p50"] = median(respBytes)
		cold := after.ColdEvals - before.ColdEvals
		rep.values["daemon.tape_hit_ratio"] = float64(after.TapeHits-before.TapeHits) / float64(max(cold, 1))
		rep.values["daemon.memo_hit_ratio"] = float64(after.MemoHits-before.MemoHits) / float64(max(after.EvalsServed-before.EvalsServed, 1))
		rep.values["daemon.unknown_trace_retries"] = float64(retries)
		rep.values["daemon.rejected"] = float64(after.Rejected - before.Rejected)
		rep.values["bench.late_ms_p99"] = percentile(lateMs, 99)
		rep.values["bench.trace_overhead_frac"] = tr.overhead().Seconds() / wall
		rep.values["sim.scavenges"] = float64(scav)
		rep.values["sim.traced_bytes"] = float64(traced)
	}
	stopped = true
	if err := s.stop(); err != nil {
		return nil, err
	}
	if cfg.traced {
		spans := tr.snapshot()
		if err := checkClosed(spans); err != nil {
			return nil, err
		}
		if path := spanFile("dtbd-mixed", cfg.seed); path != "" {
			if err := tr.writeFile(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintf(cfg.out, "spans dtbd-mixed written to %s (%d spans)\n", path, len(spans))
		}
		if err := calibrateLayers(ctx, rep, pool, reqs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// lookup is the expected result for eval request q.
func (r *dtbdRefs) lookup(q dtbdReq) refEntry {
	if q.kind == kindNamed {
		return r.named[q.named][q.policy]
	}
	return r.trace[q.trace][q.policy]
}

// dtbdDo sends request q and returns the check of its answer, which
// runs after the request's end is recorded.
func dtbdDo(ctx context.Context, cl *daemon.Client, tr *tracer, pool *dtbdPool, refs *dtbdRefs, q dtbdReq, id int64, out *dtbdOutcome, rep *report) func() {
	root := tr.begin("dtbd.request", -1, id)
	defer tr.end(root)
	rctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if q.kind == kindUpload {
		s := tr.begin("dtbd.upload", root, id)
		info, err := cl.UploadTrace(rctx, bytes.NewReader(pool.encoded[q.trace]))
		tr.end(s)
		out.ok = err == nil
		return func() {
			switch {
			case err != nil:
				rep.operationError("request %d: upload: %v", id, err)
			case info.Digest != pool.digests[q.trace] || info.Events != pool.counts[q.trace]:
				rep.mismatch("request %d: upload answered digest %s with %d events, want %s with %d", id, info.Digest, info.Events, pool.digests[q.trace], pool.counts[q.trace])
			}
		}
	}
	var body []byte
	if q.kind != kindNamed {
		body = pool.encoded[q.trace]
	}
	resp, err := evalWithUpload(rctx, cl, tr, root, id, evalReq(pool, q), body, out)
	if err != nil {
		return func() { rep.operationError("request %d: eval: %v", id, err) }
	}
	out.ok = true
	out.source = resp.Source
	out.serviceMs = resp.ServiceMs
	if q.kind == kindNamed {
		out.events = refs.events[q.named]
	} else {
		out.events = pool.counts[q.trace]
	}
	return func() {
		if tr != nil {
			if b, err := json.Marshal(resp); err == nil {
				out.respBytes = len(b) + 1 // the server's encoder ends the body with a newline
			}
		}
		if want := refs.lookup(q).json; !bytes.Equal(resp.Result, want) {
			rep.mismatch("request %d: %s result differs from the direct library result (%d vs %d bytes)", id, resp.Source, len(resp.Result), len(want))
		}
	}
}

// calibrateLayers measures, after the timed phase, the layers the
// daemon runs out of the client's sight, on the run's own inputs: the
// generator on each named workload the run asked for, decode and
// digest on each pool trace, and resolve, apply and scavenge on a
// two-runner fleet (FULL beside NoGC) against the NoGC reference.
func calibrateLayers(ctx context.Context, rep *report, pool *dtbdPool, reqs []dtbdReq) error {
	usedNamed := make([]bool, len(dtbgc.Workloads()))
	for _, q := range reqs {
		if q.kind == kindNamed {
			usedNamed[q.named] = true
		}
	}
	var genNs, genAllocs, genEvents float64
	for i, w := range dtbgc.Workloads() {
		if !usedNamed[i] {
			continue
		}
		ns, allocs, n, err := generateCost(w.Scale(evalScale(w)))
		if err != nil {
			return err
		}
		genNs += ns
		genAllocs += allocs
		genEvents += float64(n)
	}
	if genEvents > 0 {
		rep.values["workload.generate_ns_per_event"] = genNs / genEvents
		rep.values["workload.allocs_per_event"] = genAllocs / genEvents
	}

	tr := newTracer()
	var decodeNs, digestNs, events, encBytes float64
	for i, enc := range pool.encoded {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := now()
		if _, err := io.Copy(io.Discard, trace.NewDigestingReader(bytes.NewReader(enc))); err != nil {
			return err
		}
		digestNs += float64(now().Sub(start).Nanoseconds())
		encBytes += float64(len(enc))

		tf, err := newTracedFleet([]sim.Config{
			{Mode: sim.ModePolicy, Policy: dtbgc.FullPolicy(), TriggerBytes: dtbdTrigger},
			{Mode: sim.ModeNoGC},
		}, tr, int64(i))
		if err != nil {
			return err
		}
		rd := trace.NewReader(bytes.NewReader(enc))
		buf := make([]trace.Event, batchEvents)
		for {
			start := now()
			n, rerr := rd.ReadBatch(buf)
			decodeNs += float64(now().Sub(start).Nanoseconds())
			if n > 0 {
				if err := tf.feed(buf[:n], -1); err != nil {
					return err
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return rerr
			}
		}
		tf.finish()
		events += float64(tf.events)
	}
	lt := sumLayers(tr.snapshot())
	resolve := float64(lt.total["sim.resolve"].Nanoseconds())
	rep.values["trace.decode_ns_per_event"] = decodeNs / events
	rep.values["trace.digest_ns_per_byte"] = digestNs / encBytes
	rep.values["sim.resolve_ns_per_event"] = resolve / events
	rep.values["sim.apply_ns_per_runner_event"] = (float64(lt.total["sim.feed"].Nanoseconds()) - resolve) / events
	rep.values["sim.collect_ms"] = float64(lt.total["sim.scavenge"].Nanoseconds()) / 1e6 / float64(len(pool.encoded))
	return nil
}

// allocsMetric counts heap allocations since the program started.
const allocsMetric = "/gc/heap/allocs:objects"

// generateCost streams p's trace into a discarding sink and returns
// the time taken, the heap allocations made and the event count.
func generateCost(p dtbgc.Workload) (ns, allocs float64, events int, err error) {
	s := []metrics.Sample{{Name: allocsMetric}}
	metrics.Read(s)
	a0 := s[0].Value.Uint64()
	start := now()
	err = p.GenerateTo(func(trace.Event) error { events++; return nil })
	ns = float64(now().Sub(start).Nanoseconds())
	metrics.Read(s)
	return ns, float64(s[0].Value.Uint64() - a0), events, err
}

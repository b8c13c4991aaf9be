// Package tournament runs the policy tournament: every registered
// boundary policy — the paper's Table-1 roster plus the adaptive
// (learned) policies — round-robin over the paper workload corpus and
// a sweep of trace seeds, ranked by a composite memory/CPU cost with
// paired significance testing.
//
// The experimental design is fully paired: for one (workload, seed)
// cell every policy replays the SAME generated trace through one
// engine fleet, so per-cell cost differences between two policies are
// differences in policy behaviour alone. Significance is therefore
// assessed with paired tests from internal/stats — sign-flip
// permutation p-values, Benjamini–Hochberg control across the pairwise
// family, and percentile bootstrap intervals on the mean difference —
// all seeded and deterministic, so a tournament report reproduces
// bit-for-bit.
package tournament

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// DefaultRoster returns the standard tournament entrants: the six
// Table-1 policies, extra fixed-k rungs for context, and the adaptive
// policies in both bandit modes plus the gradient controller. Specs
// are registry spellings, so the roster round-trips through
// core.ParsePolicy.
func DefaultRoster() []string {
	return []string{
		"full",
		"fixed1",
		"fixed2",
		"fixed4",
		"fixed8",
		"feedmed:50k",
		"dtbfm:50k",
		"dtbmem:3000k",
		"bandit:eps=0.1",
		"bandit:eps=0.25,arms=12",
		"bandit:ucb=1.5",
		"grad",
		"grad:rate=0.2",
	}
}

// SweepSeeds returns n deterministic sweep seeds. Eight is the
// floor for claiming p < 0.05 from an exhaustive paired permutation
// test (2/2^8 ≈ 0.008); fewer seeds cannot reach significance no
// matter how consistent the data (see stats.PairedPermutationPValue).
func SweepSeeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = splitmix(uint64(i) + 0x7051)
	}
	return out
}

// splitmix is the splitmix64 finalizer, used to decorrelate small
// integer seeds.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Options parameterizes one tournament.
type Options struct {
	// Policies are registry specs (core.ParsePolicy). Nil means
	// DefaultRoster().
	Policies []string
	// Workloads is the trace corpus. Nil means the six paper profiles.
	Workloads []workload.Profile
	// Seeds is the sweep: each seed perturbs the workload generator AND
	// seeds the adaptive policies, giving one paired cell per
	// (workload, seed). Nil means SweepSeeds(8).
	Seeds []uint64
	// Scale shrinks the workloads; zero means 0.05 (tournament scale:
	// large enough for dozens of collections per run, small enough to
	// sweep 6 workloads × 8 seeds × 13 policies in seconds).
	Scale float64
	// TriggerBytes is the scavenge interval; zero means 256 KB (scaled
	// runs need a proportionally smaller interval than the paper's 1 MB
	// to keep per-run collection counts meaningful).
	TriggerBytes uint64
	// Alpha is the significance level for "significant" annotations and
	// adaptive-win claims; zero means 0.05.
	Alpha float64
	// Conf is the bootstrap confidence level; zero means 0.95.
	Conf float64
	// Workers bounds concurrent fleet replays; zero means GOMAXPROCS.
	// Concurrency never changes results: each cell is an independent
	// deterministic replay written to its own slot.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Policies == nil {
		o.Policies = DefaultRoster()
	}
	if o.Workloads == nil {
		o.Workloads = workload.PaperProfiles()
	}
	if o.Seeds == nil {
		o.Seeds = SweepSeeds(8)
	}
	if o.Scale == 0 { //dtbvet:ignore floatexact -- exact zero is the unset-option sentinel; no arithmetic feeds it
		o.Scale = 0.05
	}
	if o.TriggerBytes == 0 {
		o.TriggerBytes = 256 * 1024
	}
	if o.Alpha == 0 { //dtbvet:ignore floatexact -- unset-option sentinel
		o.Alpha = 0.05
	}
	if o.Conf == 0 { //dtbvet:ignore floatexact -- unset-option sentinel
		o.Conf = 0.95
	}
	return o
}

// Cell is one paired measurement: every policy's cost over one
// (workload, seed) trace. Slices are in roster order.
type Cell struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Cost     []float64 `json:"cost"`
	MemRatio []float64 `json:"mem_ratio"`
	Overhead []float64 `json:"overhead_pct"`
}

// Standing is one leaderboard row.
type Standing struct {
	Rank            int     `json:"rank"`
	Spec            string  `json:"spec"`
	Name            string  `json:"name"`
	Adaptive        bool    `json:"adaptive"`
	MeanCost        float64 `json:"mean_cost"`
	MeanMemRatio    float64 `json:"mean_mem_ratio"`
	MeanOverheadPct float64 `json:"mean_overhead_pct"`
}

// Comparison is one pairwise paired test over every cell, reported
// with the better-ranked policy first (MeanDiff <= 0).
type Comparison struct {
	Better      string  `json:"better"`
	Worse       string  `json:"worse"`
	MeanDiff    float64 `json:"mean_diff"`
	CILo        float64 `json:"ci_lo"`
	CIHi        float64 `json:"ci_hi"`
	P           float64 `json:"p"`
	Q           float64 `json:"q"` // Benjamini–Hochberg adjusted
	Significant bool    `json:"significant"`
}

// AdaptiveWin records a workload where one adaptive policy beat every
// pure (stock) policy in the roster with per-pair significance: the
// paper-refresh claim the tournament exists to test.
type AdaptiveWin struct {
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	MaxP     float64 `json:"max_p"` // worst pairwise p-value among the stock comparisons
}

// Result is a complete tournament report.
type Result struct {
	Specs        []string      `json:"specs"`
	Names        []string      `json:"names"`
	Adaptive     []bool        `json:"adaptive"`
	Workloads    []string      `json:"workloads"`
	Seeds        []uint64      `json:"seeds"`
	Scale        float64       `json:"scale"`
	TriggerBytes uint64        `json:"trigger_bytes"`
	Alpha        float64       `json:"alpha"`
	Conf         float64       `json:"conf"`
	Cells        []Cell        `json:"cells"`
	Standings    []Standing    `json:"standings"`
	Comparisons  []Comparison  `json:"comparisons"`
	AdaptiveWins []AdaptiveWin `json:"adaptive_wins"`
}

// cost is the composite objective a policy is ranked by, from one
// run's result: excess memory (mean bytes in use over mean live
// bytes, minus the unavoidable 1) plus the CPU overhead fraction.
// Both terms are dimensionless fractions of the same order, so
// neither axis of the paper's memory/CPU tradeoff dominates: FULL
// pays on the right term, FIXED(1) on the left, and the dynamic
// policies win by balancing them.
func cost(r *sim.Result) (total, memRatio float64) {
	memRatio = r.MemMeanBytes / math.Max(r.LiveMeanBytes, 1)
	return (memRatio - 1) + r.OverheadPct/100, memRatio
}

// Run executes the full tournament and assembles the report.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if len(opts.Policies) < 2 {
		return nil, fmt.Errorf("tournament: need at least 2 policies, have %d", len(opts.Policies))
	}
	if len(opts.Seeds) == 0 || len(opts.Workloads) == 0 {
		return nil, fmt.Errorf("tournament: empty seed sweep or workload corpus")
	}
	res := &Result{
		Specs:        opts.Policies,
		Scale:        opts.Scale,
		TriggerBytes: opts.TriggerBytes,
		Alpha:        opts.Alpha,
		Conf:         opts.Conf,
		Seeds:        opts.Seeds,
	}
	policies := make([]core.Policy, len(opts.Policies))
	for i, spec := range opts.Policies {
		p, err := core.ParsePolicy(spec)
		if err != nil {
			return nil, fmt.Errorf("tournament: roster entry %d: %w", i, err)
		}
		policies[i] = p
		res.Names = append(res.Names, p.Name())
		_, adaptive := p.(core.AdaptivePolicy)
		res.Adaptive = append(res.Adaptive, adaptive)
	}
	for _, w := range opts.Workloads {
		res.Workloads = append(res.Workloads, w.Name)
	}

	// One job per (workload, seed) cell: generate the perturbed trace
	// and fan it out to every policy through one fleet.
	res.Cells = make([]Cell, len(opts.Workloads)*len(opts.Seeds))
	jobs := make([]engine.Job, 0, len(res.Cells))
	for wi, prof := range opts.Workloads {
		for si, seed := range opts.Seeds {
			prof := prof.Scale(opts.Scale)
			prof.Seed ^= splitmix(seed)
			jobs = append(jobs, func(ctx context.Context) error {
				cfgs := make([]sim.Config, len(policies))
				for pi, p := range policies {
					cfgs[pi] = sim.Config{
						Mode: sim.ModePolicy, Policy: p,
						TriggerBytes: opts.TriggerBytes,
						Label:        fmt.Sprintf("%s/s%d/%s", prof.Name, si, p.Name()),
						PolicySeed:   seed,
					}
				}
				runs, _, err := engine.Replay(ctx, engine.Events(prof.GenerateTo), cfgs)
				if err != nil {
					return fmt.Errorf("tournament: %s seed %#x: %w", prof.Name, seed, err)
				}
				cell := Cell{Workload: prof.Name, Seed: seed}
				for _, r := range runs {
					c, mr := cost(r)
					cell.Cost = append(cell.Cost, c)
					cell.MemRatio = append(cell.MemRatio, mr)
					cell.Overhead = append(cell.Overhead, r.OverheadPct)
				}
				res.Cells[wi*len(opts.Seeds)+si] = cell
				return nil
			})
		}
	}
	if err := engine.RunJobs(ctx, opts.Workers, jobs); err != nil {
		return nil, err
	}

	res.Standings = standings(res, res.Cells)
	res.Comparisons = comparisons(res, opts)
	res.AdaptiveWins = adaptiveWins(res, opts)
	return res, nil
}

// costColumn extracts policy pi's cost across cells, cell order.
func costColumn(cells []Cell, pi int) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = c.Cost[pi]
	}
	return out
}

// standings ranks the roster by mean cost over the given cells.
func standings(res *Result, cells []Cell) []Standing {
	out := make([]Standing, len(res.Specs))
	n := float64(len(cells))
	for pi := range res.Specs {
		s := Standing{Spec: res.Specs[pi], Name: res.Names[pi], Adaptive: res.Adaptive[pi]}
		for _, c := range cells {
			s.MeanCost += c.Cost[pi] / n
			s.MeanMemRatio += c.MemRatio[pi] / n
			s.MeanOverheadPct += c.Overhead[pi] / n
		}
		out[pi] = s
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].MeanCost < out[b].MeanCost })
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// comparisons runs every pairwise paired test over the full cell set
// and BH-adjusts the family.
func comparisons(res *Result, opts Options) []Comparison {
	var ps []float64
	var out []Comparison
	for a := 0; a < len(res.Specs); a++ {
		for b := a + 1; b < len(res.Specs); b++ {
			x, y := costColumn(res.Cells, a), costColumn(res.Cells, b)
			// Orient so Better is the lower-mean policy.
			var mean float64
			for i := range x {
				mean += (x[i] - y[i]) / float64(len(x))
			}
			ai, bi := a, b
			if mean > 0 {
				ai, bi = b, a
				x, y = y, x
				mean = -mean
			}
			// The permutation seed is derived from the pair so reruns
			// reproduce exactly; exhaustive when few cells.
			p := stats.PairedPermutationPValue(x, y, 0, splitmix(uint64(ai)<<16|uint64(bi)))
			lo, hi := stats.PairedBootstrapCI(x, y, opts.Conf, 0, splitmix(uint64(bi)<<16|uint64(ai)))
			ps = append(ps, p)
			out = append(out, Comparison{
				Better: res.Names[ai], Worse: res.Names[bi],
				MeanDiff: mean, CILo: lo, CIHi: hi, P: p,
			})
		}
	}
	qs := stats.BenjaminiHochberg(ps)
	for i := range out {
		out[i].Q = qs[i]
		out[i].Significant = qs[i] <= opts.Alpha
	}
	// Most-decisive first; ties broken by the pair for determinism.
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Q != out[b].Q { //dtbvet:ignore floatexact -- sort tiebreak, not an equality decision; equal bits fall through to the name tiebreak
			return out[a].Q < out[b].Q
		}
		if out[a].Better != out[b].Better {
			return out[a].Better < out[b].Better
		}
		return out[a].Worse < out[b].Worse
	})
	return out
}

// adaptiveWins finds, per workload, adaptive policies whose cost beats
// EVERY pure policy in the roster across the seed sweep with per-pair
// p below alpha. The per-workload sample is the seed sweep alone (one
// pair per seed), so the claim needs enough seeds — see SweepSeeds.
func adaptiveWins(res *Result, opts Options) []AdaptiveWin {
	var wins []AdaptiveWin
	for wi, wname := range res.Workloads {
		cells := res.Cells[wi*len(opts.Seeds) : (wi+1)*len(opts.Seeds)]
		for ai := range res.Specs {
			if !res.Adaptive[ai] {
				continue
			}
			maxP, beatsAll := 0.0, true
			for si := range res.Specs {
				if res.Adaptive[si] {
					continue
				}
				x, y := costColumn(cells, ai), costColumn(cells, si)
				var mean float64
				for i := range x {
					mean += (x[i] - y[i]) / float64(len(x))
				}
				if mean >= 0 {
					beatsAll = false
					break
				}
				p := stats.PairedPermutationPValue(x, y, 0, splitmix(uint64(wi)<<32|uint64(ai)<<16|uint64(si)))
				if p > maxP {
					maxP = p
				}
			}
			if beatsAll && maxP < opts.Alpha {
				wins = append(wins, AdaptiveWin{Workload: wname, Policy: res.Names[ai], MaxP: maxP})
			}
		}
	}
	return wins
}

// SplitHalfStable re-ranks the tournament on the two halves of the
// seed sweep and reports whether both halves crown the same leader —
// a cheap overfitting canary for CI: a ranking that flips when half
// the data is withheld is noise, not signal. Needs at least 2 seeds.
func (r *Result) SplitHalfStable() (bool, string, string) {
	half := len(r.Seeds) / 2
	if half == 0 {
		return true, "", ""
	}
	inHalf := func(second bool) []Cell {
		var out []Cell
		for wi := range r.Workloads {
			cells := r.Cells[wi*len(r.Seeds) : (wi+1)*len(r.Seeds)]
			if second {
				out = append(out, cells[half:]...)
			} else {
				out = append(out, cells[:half]...)
			}
		}
		return out
	}
	a := standings(r, inHalf(false))
	b := standings(r, inHalf(true))
	return a[0].Name == b[0].Name, a[0].Name, b[0].Name
}

// Package workload generates synthetic allocation traces calibrated to
// the six program runs of the paper's evaluation (GHOST ×2, ESPRESSO
// ×2, SIS, CFRAC — Tables 5 and 6).
//
// The original experiments replayed QPT-captured malloc/free traces of
// four C programs. Those traces no longer exist, so each profile here
// reproduces the statistics the collectors actually react to: total
// allocation volume, allocation rate (execution time), the live-byte
// curve (mean and maximum), and the object-lifetime mixture that
// creates each program's characteristic behaviour — SIS retaining most
// of what it allocates, CFRAC retaining almost nothing, GHOST and
// ESPRESSO in between with the medium-lived components that make
// tenuring policy matter.
//
// A profile is a byte-weighted mixture of lifetime classes:
//
//   - permanent storage, accumulated linearly over the run (a ramp);
//   - exponentially distributed lifetimes with a class-specific mean,
//     measured on the allocation clock (bytes allocated after birth).
//
// Object sizes are log-normal around the profile mean, clamped to a
// sane range. Generation is fully deterministic for a given profile.
package workload

import (
	"fmt"
	"math"
	"strings"

	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// Class is one component of a lifetime mixture.
type Class struct {
	// Fraction of allocated bytes drawn from this class. Fractions in
	// a profile must sum to 1 within a small tolerance.
	Fraction float64
	// MeanLife is the class's mean lifetime in bytes of subsequent
	// allocation. Ignored when Permanent or DieAtPhaseEnd is set.
	MeanLife float64
	// Permanent objects are never freed.
	Permanent bool
	// DieAtPhaseEnd objects live until the end of the program phase
	// they were allocated in (plus a small exponential jitter). This
	// models pass-local data — Espresso's cube lists live for one
	// expand/irredundant/reduce pass and die together at its end,
	// which is precisely the pattern that strands tenured garbage
	// under Feedback Mediation. Requires Profile.PhaseBytes > 0.
	DieAtPhaseEnd bool
}

// Profile describes one synthetic program.
type Profile struct {
	Name        string
	Description string
	SourceLines int     // Table 6 metadata: lines of C source
	ExecSeconds float64 // Table 6: execution time on the 10 MIPS model
	TotalBytes  uint64  // Table 6: total allocation
	MeanObject  float64 // mean object size in bytes
	SigmaObject float64 // log-normal sigma for sizes
	Seed        uint64
	// PhaseBytes divides the run into fixed-length program phases on
	// the allocation clock; classes with DieAtPhaseEnd key off it.
	// Zero means no phase structure.
	PhaseBytes uint64
	Classes    []Class
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	if p.TotalBytes == 0 {
		return fmt.Errorf("workload %s: zero TotalBytes", p.Name)
	}
	if p.ExecSeconds <= 0 {
		return fmt.Errorf("workload %s: non-positive ExecSeconds", p.Name)
	}
	if p.MeanObject < 16 {
		return fmt.Errorf("workload %s: MeanObject %v too small", p.Name, p.MeanObject)
	}
	if len(p.Classes) == 0 {
		return fmt.Errorf("workload %s: no lifetime classes", p.Name)
	}
	sum := 0.0
	for i, c := range p.Classes {
		if c.Fraction < 0 {
			return fmt.Errorf("workload %s: class %d negative fraction", p.Name, i)
		}
		if c.Permanent && c.DieAtPhaseEnd {
			return fmt.Errorf("workload %s: class %d both permanent and phase-bound", p.Name, i)
		}
		if c.DieAtPhaseEnd && p.PhaseBytes == 0 {
			return fmt.Errorf("workload %s: class %d dies at phase end but PhaseBytes is 0", p.Name, i)
		}
		if !c.Permanent && !c.DieAtPhaseEnd && c.MeanLife <= 0 {
			return fmt.Errorf("workload %s: class %d non-positive lifetime", p.Name, i)
		}
		sum += c.Fraction
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("workload %s: class fractions sum to %v, want 1", p.Name, sum)
	}
	return nil
}

// Scale returns a copy with total allocation (and thus run length)
// multiplied by f, preserving rates and the lifetime mixture. Useful
// for fast tests. Lifetimes are unchanged: they are already expressed
// on the allocation clock.
func (p Profile) Scale(f float64) Profile {
	if f <= 0 {
		panic("workload: Scale requires f > 0")
	}
	q := p
	q.TotalBytes = uint64(float64(p.TotalBytes) * f)
	q.ExecSeconds = p.ExecSeconds * f
	// Phases are program structure (passes over the input), so a
	// shorter run has proportionally shorter passes.
	q.PhaseBytes = uint64(float64(p.PhaseBytes) * f)
	q.Classes = append([]Class(nil), p.Classes...)
	return q
}

// death is a scheduled free on the allocation clock.
type death struct {
	clock uint64 // allocation-clock time of death
	id    trace.ObjectID
}

type deathHeap []death

// push and pop are container/heap's Push and Pop specialized to
// deathHeap: the same sift-up and sift-down, comparison for
// comparison and swap for swap, so pop order — ties included — and
// thus every generated trace is unchanged, without boxing each death
// in an interface.
func (h *deathHeap) push(d death) {
	*h = append(*h, d)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].clock < s[i].clock) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *deathHeap) pop() death {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].clock < s[j1].clock {
			j = j2 // right child
		}
		if !(s[j].clock < s[i].clock) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	d := s[n]
	*h = s[:n]
	return d
}

// Generate produces the profile's full event trace deterministically.
// It is a thin collector over GenerateTo; replay paths that do not
// need the slice (the evaluation engine, streaming simulation) should
// call GenerateTo directly so paper-scale traces never materialize.
func (p Profile) Generate() ([]trace.Event, error) {
	// Rough capacity estimate: allocs + frees.
	estObjects := int(float64(p.TotalBytes)/math.Max(p.MeanObject, 1)) + 16
	events := make([]trace.Event, 0, 2*estObjects)
	err := p.GenerateTo(func(e trace.Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return events, nil
}

// GenerateTo streams the profile's event trace, in order, to emit —
// one event at a time, so the trace never exists in memory at once.
// The sequence is identical to Generate's for the same profile.
// Generation stops at the first emit error, which is returned
// unchanged (wrapped errors pass errors.Is through).
func (p Profile) GenerateTo(emit func(trace.Event) error) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r := xrand.New(p.Seed)
	// Pre-compute class selection thresholds.
	cum := make([]float64, len(p.Classes))
	acc := 0.0
	for i, c := range p.Classes {
		acc += c.Fraction
		cum[i] = acc
	}
	// Log-normal size parameters so that E[size] = MeanObject.
	sigma := p.SigmaObject
	if sigma == 0 { //dtbvet:ignore floatexact -- exact zero is the unset-parameter sentinel; no arithmetic feeds it
		sigma = 0.8
	}
	mu := math.Log(p.MeanObject) - sigma*sigma/2

	instrPerByte := p.ExecSeconds * 10e6 / float64(p.TotalBytes)

	var (
		clock     uint64         // bytes allocated so far
		nextID    trace.ObjectID = 1
		deaths    deathHeap
		nextPhase uint64
	)
	if p.PhaseBytes > 0 {
		nextPhase = p.PhaseBytes
	}
	instrAt := func(c uint64) uint64 { return uint64(float64(c) * instrPerByte) }

	for clock < p.TotalBytes {
		// Emit any deaths due before the next allocation.
		for len(deaths) > 0 && deaths[0].clock <= clock {
			d := deaths.pop()
			if err := emit(trace.Free(d.id, instrAt(clock))); err != nil {
				return err
			}
		}
		// Phase boundaries are program quiescent points; mark them so
		// opportunistic scheduling can key off them. The mark lands a
		// little after the boundary, past the death jitter, so the
		// pass-local storage is already dead when a collector reacts.
		if nextPhase > 0 && clock >= nextPhase+16*kb {
			if err := emit(trace.Mark("phase", instrAt(clock))); err != nil {
				return err
			}
			nextPhase += p.PhaseBytes
		}
		size := uint64(math.Max(16, math.Min(8192, r.LogNormal(mu, sigma))))
		id := nextID
		nextID++
		clock += size
		if err := emit(trace.Alloc(id, size, instrAt(clock))); err != nil {
			return err
		}
		// Pick the class and schedule death.
		u := r.Float64()
		ci := 0
		for ci < len(cum)-1 && u >= cum[ci] {
			ci++
		}
		c := p.Classes[ci]
		switch {
		case c.Permanent:
			// never freed
		case c.DieAtPhaseEnd:
			phaseEnd := (clock/p.PhaseBytes + 1) * p.PhaseBytes
			jitter := uint64(r.Exp(4 * kb))
			deaths.push(death{clock: phaseEnd + jitter, id: id})
		default:
			life := uint64(r.Exp(c.MeanLife)) + 1
			deaths.push(death{clock: clock + life, id: id})
		}
	}
	// Flush deaths that fall within the run; objects scheduled to die
	// after the end stay live, like a real program exiting.
	for len(deaths) > 0 && deaths[0].clock <= clock {
		d := deaths.pop()
		if err := emit(trace.Free(d.id, instrAt(clock))); err != nil {
			return err
		}
	}
	return nil
}

// MustGenerate is Generate for known-good built-in profiles.
//
// Panic contract: it panics when the profile fails validation or
// generation. It exists for the built-in paper profiles and test
// fixtures, whose validity is fixed at compile time; hand-assembled
// or fitted profiles must use Generate and handle the error.
func (p Profile) MustGenerate() []trace.Event {
	events, err := p.Generate()
	if err != nil {
		panic(fmt.Sprintf("workload: MustGenerate(%s): %v — for profiles not known-good at compile time use Generate", p.Name, err))
	}
	return events
}

const (
	kb = 1024
	mb = 1024 * 1024
)

// The six paper runs. Class mixtures are calibrated so the simulated
// LIVE and No-GC rows land near Table 2's, and totals/rates near
// Table 6's; EXPERIMENTS.md records the measured values.

// Ghost1 models GhostScript interpreting a large reference manual.
func Ghost1() Profile {
	return Profile{
		Name:        "GHOST(1)",
		Description: "GhostScript 2.1 interpreting a large reference manual (NODISPLAY)",
		SourceLines: 29500,
		ExecSeconds: 31,
		TotalBytes:  49 * mb,
		MeanObject:  96,
		Seed:        0x6705701,
		Classes: []Class{
			// Interpreter state accumulating for the whole run (fonts,
			// dictionaries), a slowly-dying pool, and fast churn. The
			// mixture is solved from Table 2 (live mean/max 777/1118),
			// Table 3 (Fixed1 median pause ~31 ms => ~15 KB of young
			// survivors per 1 MB scavenge interval) and Table 2's
			// Fixed1-vs-Full gap (~390 KB of storage dying after
			// tenure over the run).
			{Fraction: 0.0139, Permanent: true},
			{Fraction: 0.0150, MeanLife: 29 * 1024 * kb},
			{Fraction: 0.9711, MeanLife: 15 * kb},
		},
	}
}

// Ghost2 models GhostScript interpreting a masters thesis.
func Ghost2() Profile {
	return Profile{
		Name:        "GHOST(2)",
		Description: "GhostScript 2.1 interpreting a masters thesis (NODISPLAY)",
		SourceLines: 29500,
		ExecSeconds: 71,
		TotalBytes:  88 * mb,
		MeanObject:  96,
		Seed:        0x6705702,
		Classes: []Class{
			{Fraction: 0.0172, Permanent: true},
			{Fraction: 0.0115, MeanLife: 48 * 1024 * kb},
			{Fraction: 0.9713, MeanLife: 14 * kb},
		},
	}
}

// Espresso1 models Espresso minimizing a small PLA example.
func Espresso1() Profile {
	return Profile{
		Name:        "ESPRESSO(1)",
		Description: "Espresso 2.3 logic optimization, small release example",
		SourceLines: 15500,
		ExecSeconds: 62,
		TotalBytes:  15 * mb,
		MeanObject:  64,
		Seed:        0xE5941,
		PhaseBytes:  2 * mb,
		Classes: []Class{
			{Fraction: 0.0097, Permanent: true},
			{Fraction: 0.0100, DieAtPhaseEnd: true},
			{Fraction: 0.9803, MeanLife: 6 * kb},
		},
	}
}

// Espresso2 models Espresso on a larger input.
func Espresso2() Profile {
	return Profile{
		Name:        "ESPRESSO(2)",
		Description: "Espresso 2.3 logic optimization, large release example",
		SourceLines: 15500,
		ExecSeconds: 240,
		TotalBytes:  104 * mb,
		MeanObject:  64,
		Seed:        0xE5942,
		PhaseBytes:  4 * mb,
		Classes: []Class{
			// The medium-lived pool (~2.5 MB mean life) is what makes
			// ESPRESSO(2) the paper's showcase: those objects tenure
			// under any pause-limited policy and die soon after, so
			// FeedMed strands them while DtbFM's backward boundary
			// moves recover them (§6.2).
			{Fraction: 0.0020, Permanent: true},
			{Fraction: 0.0200, DieAtPhaseEnd: true},
			{Fraction: 0.9780, MeanLife: 5 * kb},
		},
	}
}

// Sis models SIS verifying a synthesized circuit with random vectors;
// most allocated storage stays live for the whole run.
func Sis() Profile {
	return Profile{
		Name:        "SIS",
		Description: "SIS 1.1 circuit verification (iscas89/s5378.blif, 1024 random vectors)",
		SourceLines: 172000,
		ExecSeconds: 30,
		TotalBytes:  15 * mb,
		MeanObject:  96,
		Seed:        0x515,
		Classes: []Class{
			{Fraction: 0.30, Permanent: true},
			{Fraction: 0.45, MeanLife: 5600 * kb},
			{Fraction: 0.25, MeanLife: 30 * kb},
		},
	}
}

// Cfrac models continued-fraction factoring; almost nothing survives.
func Cfrac() Profile {
	return Profile{
		Name:        "CFRAC",
		Description: "Cfrac factoring a 25-digit product of two primes",
		SourceLines: 6000,
		ExecSeconds: 8,
		TotalBytes:  3 * mb,
		MeanObject:  48,
		Seed:        0xCF8AC,
		Classes: []Class{
			{Fraction: 0.002, Permanent: true},
			{Fraction: 0.998, MeanLife: 8 * kb},
		},
	}
}

// PaperProfiles returns the six evaluation runs in table order.
func PaperProfiles() []Profile {
	return []Profile{Ghost1(), Ghost2(), Espresso1(), Espresso2(), Sis(), Cfrac()}
}

// ByName returns the named profile or an error listing the available
// names. Lookup is case-insensitive and accepts shell-friendly
// aliases: "ghost1", "ghost2", "espresso1", "espresso2", "sis",
// "cfrac".
func ByName(name string) (Profile, error) {
	canon := strings.ToUpper(strings.TrimSpace(name))
	switch canon {
	case "GHOST1":
		canon = "GHOST(1)"
	case "GHOST2":
		canon = "GHOST(2)"
	case "ESPRESSO1":
		canon = "ESPRESSO(1)"
	case "ESPRESSO2":
		canon = "ESPRESSO(2)"
	}
	for _, p := range PaperProfiles() {
		if p.Name == canon {
			return p, nil
		}
	}
	names := make([]string, 0, 6)
	for _, p := range PaperProfiles() {
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q (have %v)", name, names)
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

// migrate: four long-lived guests per cluster are migrated over and over,
// once per copy policy, on a lossy segment. See README.md.
const (
	migHosts    = 8
	migLoss     = 0.01
	migMoves    = 65              // per guest per policy: 4 policies × 4 guests × 65 = 1040
	migBeatHops = 20              // migrations of the output-checked program
	migSettle   = 4 * time.Second // set-up: guests loaded and initialised
	migThink    = 1 * time.Second // mean pause between a guest's migrations
)

var (
	migPolicies = []struct {
		name string
		core.Policy
	}{
		{"precopy", core.PolicyPrecopy}, {"postcopy", core.PolicyPostcopy},
		{"hybrid", core.PolicyHybrid}, {"flush", core.PolicyFlush},
	}
	migGuests = []string{"parser", "tex", "optimizer", "make"}
)

// move is one migration of one guest.
type move struct {
	id         int
	lh         vid.LHID
	start, end sim.Time
	rep        *core.MigrationReport
	err        error
}

// migCluster is one policy's cluster and what happened on it.
type migCluster struct {
	policy   string // name in metric names and messages
	flush    bool
	c        *core.Cluster
	start    sim.Time
	moves    []*move
	agents   int // agents still running
	problems []string
	beats    int // lines the output-checked program prints in all
	beatCode uint32
	beatErr  error
}

type migrate struct {
	cfg      config
	clusters []*migCluster
	nextID   int
	in       digest
}

func newMigrate(cfg config) instance { return &migrate{cfg: cfg} }

func (m *migrate) inputs() uint64 { return m.in.h }

func (m *migrate) setup() {
	hops := m.cfg.count(migBeatHops)
	// The output-checked program prints a line per foBeatMs of CPU time and
	// lives long enough for all its hops (each at most ~1.5 s).
	beat := workload.Spec{
		Name: "beat", HotKB: 8, HotRateKBps: 100, OutputEveryMs: foBeatMs,
		DurationMs: uint32(hops) * 1500,
	}
	for pi, pol := range migPolicies {
		mc := &migCluster{
			policy: pol.name, flush: pol.Policy == core.PolicyFlush,
			beats: int(beat.DurationMs/foBeatMs) + 1,
		}
		mc.c = core.NewCluster(core.Options{
			Workstations: migHosts, Seed: clusterSeed, LossRate: migLoss, Policy: pol.Policy,
		})
		for _, name := range migGuests {
			spec, _ := workload.PaperSpec(name)
			spec.Name, spec.DurationMs = "g-"+name, 0 // runs until the cluster is dropped
			mc.c.Install(workload.Image(spec, 32*1024))
		}
		mc.c.Install(workload.Image(beat, 16*1024))
		mc.start = sim.Time(migSettle)
		home := mc.c.Node(0)

		for gi, name := range migGuests {
			rng := rand.New(rand.NewSource(m.cfg.seed*7919 + int64(pi)*1009 + int64(gi)*104729 + 3))
			offset := time.Duration(rng.Int63n(int64(migThink)))
			m.in.add(int64(offset))
			mc.agents++
			home.Agent(func(a *core.Agent) {
				defer func() { mc.agents-- }()
				job, err := a.ExecR("g-"+name, nil, fmt.Sprintf("ws%d", gi+1), 0)
				if err != nil {
					mc.problems = append(mc.problems, fmt.Sprintf("%s: exec %s: %v", pol.name, name, err))
					return
				}
				a.Sleep(mc.start.Add(offset).Sub(a.Now()))
				for i := 0; i < m.cfg.count(migMoves); i++ {
					// Think time: migThink ± 25 %, drawn from the seed.
					a.Sleep(migThink*3/4 + time.Duration(rng.Int63n(int64(migThink/2))))
					m.move(a, mc, job)
				}
				if _, _, err := a.Inspect(job.PID); err != nil {
					mc.problems = append(mc.problems, fmt.Sprintf("%s: %s does not answer after its last move: %v", pol.name, name, err))
				}
			})
		}

		// beat prints to the home display while it is moved around: its
		// output must arrive exactly once and in order.
		trng := rand.New(rand.NewSource(m.cfg.seed*7919 + int64(pi)*1009 + 7))
		mc.agents++
		home.Agent(func(a *core.Agent) {
			defer func() { mc.agents-- }()
			a.Sleep(mc.start.Sub(a.Now()))
			job, err := a.ExecR(beat.Name, nil, "ws5", 0)
			if err != nil {
				mc.beatErr = err
				return
			}
			for i := 0; i < hops; i++ {
				a.Sleep(300*time.Millisecond + time.Duration(trng.Int63n(int64(200*time.Millisecond))))
				if _, err := a.Migrate(job, false); err != nil {
					mc.beatErr = err
					return
				}
			}
			mc.beatCode, mc.beatErr = a.Wait(job)
		})
		mc.c.Run(migSettle)
		m.clusters = append(m.clusters, mc)
	}
}

// move migrates the guest once and records the outcome.
func (m *migrate) move(a *core.Agent, mc *migCluster, job *core.Job) {
	m.nextID++
	mv := &move{id: m.nextID, lh: job.LHID, start: a.Now()}
	mc.moves = append(mc.moves, mv)
	mv.rep, mv.err = a.Migrate(job, false)
	mv.end = a.Now()
}

func (m *migrate) run() {
	for _, mc := range m.clusters {
		if m.cfg.traced() {
			attachListener(mc.c, m.cfg.rec)
		}
		moves := time.Duration(m.cfg.count(migMoves))
		limit := mc.start.Add(moves * (migThink + 10*time.Second))
		for mc.agents > 0 && mc.c.Sim.Now() < limit {
			mc.c.Run(500 * time.Millisecond)
		}
	}
}

func (m *migrate) report(r *result) {
	var (
		k                              counters
		freeze, total                  samples
		rounds, residual, wireKB       samples
		faults, stall, occupancy       samples
		winSends, winStalls, flushedKB float64
		freezeErr, linesLost           float64
	)
	phaseSelf := map[string]float64{}
	for _, mc := range m.clusters {
		pol := mc.policy
		var pf, pt samples
		for _, mv := range mc.moves {
			r.attempted++
			if mv.err != nil || mv.rep == nil {
				r.failed++
				continue
			}
			rep := mv.rep
			r.check(!rep.ResidueAborted, "%s: migration %d lost its post-copy residue", pol, mv.id)
			pf = append(pf, ms(rep.FreezeTime))
			pt = append(pt, ms(rep.Total))
			rounds = append(rounds, float64(len(rep.Rounds)))
			residual = append(residual, rep.ResidualKB)
			wireKB = append(wireKB, float64(rep.WireBytes)/1024)
			occupancy = append(occupancy, rep.WindowOccupancy)
			winSends += float64(rep.WindowSends)
			winStalls += float64(rep.WindowStalls)
			if pol == "postcopy" || pol == "hybrid" {
				faults = append(faults, float64(rep.PostSwapFaults))
				stall = append(stall, ms(rep.PostSwapStall))
			}
		}
		freeze, total = append(freeze, pf...), append(total, pt...)
		r.layer["core.freeze_p50_ms."+pol] = pf.median()
		r.layer["core.total_p50_ms."+pol] = pt.median()
		for _, p := range mc.problems {
			r.check(false, "%s", p)
		}
		r.check(mc.agents == 0, "%s: %d agents still running when the run ended", pol, mc.agents)
		lines, ordered := beatLines(mc.c.Node(0).Display.Lines())
		r.check(mc.beatErr == nil && mc.beatCode == 0, "%s: beat: code %d, %v", pol, mc.beatCode, mc.beatErr)
		r.check(ordered, "%s: beat output is duplicated or out of order (%d lines)", pol, lines)
		linesLost += float64(mc.beats - lines)
		k.addCluster(mc.c)
		r.virtS += mc.c.Sim.Now().Sub(mc.start).Seconds()
		if mc.flush {
			_, rx := mc.c.FSHost.NIC.ByteCounters()
			flushedKB += float64(rx) / 1024
		}
		if m.cfg.traced() {
			if e := m.spans(mc, phaseSelf); e > freezeErr {
				freezeErr = e
			}
		}
	}
	r.quantile("freeze_p50_ms", "delay_p50_ms", freeze, 0.50)
	r.quantile("freeze_p99_ms", "delay_tail_ms", freeze, 0.99)
	r.quantile("migrate_p50_ms", "op_p50_ms", total, 0.50)
	r.quantile("migrate_p99_ms", "op_tail_ms", total, 0.99)

	k.finish(r.layer)
	r.dispatches = k.dispatches
	r.layer["fileserver.flush_kb"] = flushedKB
	r.layer["core.beat_lines_lost"] = linesLost
	r.layer["core.rounds_mean"] = rounds.mean()
	r.layer["core.residual_kb_p50"] = residual.median()
	r.layer["core.wire_kb_per_migration"] = wireKB.mean()
	r.layer["core.window_stall_share"] = ratio(winStalls, winSends)
	r.layer["core.window_occupancy"] = occupancy.mean()
	r.layer["core.postswap_faults_mean"] = faults.mean()
	r.layer["core.postswap_stall_p50_ms"] = stall.median()
	if n := float64(len(freeze)); m.cfg.traced() && n > 0 {
		for ph, v := range phaseSelf {
			r.layer["core.phase_ms."+ph] = v / n
		}
		r.layer["bench.freeze_sum_err_max"] = freezeErr
	}
	r.notes = append(r.notes, fmt.Sprintf("%d migrations: %d policies × %d guests × %d moves, %d hosts, %.0f %% frame loss",
		r.attempted, len(migPolicies), len(migGuests), m.cfg.count(migMoves), migHosts, migLoss*100))
}

// spans turns the migration phase spans the cluster published into the
// recorder's span tree — one root per migration, the phases beneath it,
// residue, swap and rebind beneath freeze — and adds each phase's self
// time to phaseSelf. It returns the largest relative difference between a
// migration's freeze span and its reported FreezeTime.
func (m *migrate) spans(mc *migCluster, phaseSelf map[string]float64) float64 {
	rec := m.cfg.rec
	first := len(rec.spans)
	byLH := map[vid.LHID][]*move{}
	for _, mv := range mc.moves {
		byLH[mv.lh] = append(byLH[mv.lh], mv)
	}
	roots := map[*move]int{}
	freezes := map[*move]int{}
	owner := func(s trace.Span) *move {
		// A guest's migrations do not overlap: the span belongs to the last
		// one that started at or before it.
		var own *move
		for _, mv := range byLH[s.LH] {
			if mv.start <= s.Start {
				own = mv
			}
		}
		return own
	}
	published := mc.c.Trace.Spans()
	for _, mv := range mc.moves {
		roots[mv] = rec.add("migrate", mv.id, 0, mv.start, mv.end)
	}
	for _, s := range published {
		if mv := owner(s); mv != nil && s.Phase == trace.PhaseFreeze {
			freezes[mv] = rec.add(s.Phase.String(), mv.id, roots[mv], s.Start, s.End)
		}
	}
	for _, s := range published {
		mv := owner(s)
		if mv == nil || s.Phase == trace.PhaseFreeze {
			continue
		}
		parent := roots[mv]
		switch s.Phase {
		case trace.PhaseResidue, trace.PhaseSwap, trace.PhaseRebind:
			if f, ok := freezes[mv]; ok {
				parent = f
			}
		}
		rec.add(s.Phase.String(), mv.id, parent, s.Start, s.End)
	}
	self := selfTimes(rec.spans[first:])
	for _, s := range rec.spans[first:] {
		if s.Name != "migrate" {
			phaseSelf[s.Name] += self[s.ID]
		}
	}
	worst := 0.0
	for mv, id := range freezes {
		if mv.rep == nil || mv.rep.FreezeTime == 0 {
			continue
		}
		// A retried migration freezes more than once; the report covers the
		// attempt that succeeded, which is the last freeze span recorded.
		if e := math.Abs(rec.spans[id-1].ms()-ms(mv.rep.FreezeTime)) / ms(mv.rep.FreezeTime); e > worst {
			worst = e
		}
	}
	return worst
}

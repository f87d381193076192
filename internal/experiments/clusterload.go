package experiments

import (
	"fmt"
	"sort"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/params"
	"vsystem/internal/sched"
	"vsystem/internal/trace"
	"vsystem/internal/workload"
)

// ClusterLoad (E11) is the compile-farm macro-benchmark: an open-loop
// Poisson stream of latency-critical and best-effort jobs submitted from
// ten home workstations into a large cluster via `@ *`, once per
// selection policy. Open-loop arrivals do not slow down when the cluster
// backs up, so the p99/p999 turnaround tail exposes what closed-loop
// experiments hide.
//
// At this scale the paper's first-response protocol has two built-in
// costs the sched layer avoids: every query makes every idle machine
// evaluate the probe (§2.1's "response time ... about 23 ms" — here paid
// a few hundred times per second cluster-wide), and every willing machine
// answers, so the submitter's kernel digests hundreds of replies per
// placement at ~0.7 ms each. The load-aware policies answer from the
// beacon-fed cache with one unicast probe instead. The shared costs both
// configurations keep: the file server ships every job's image (the
// per-class hot spot measured here in bytes), and the 10 Mbit/s segment
// serializes everything.
//
// The three arms are independent clusters and run side by side.
func ClusterLoad(p *Pool, seed int64, hosts int) *Result {
	r := newResult("E11", fmt.Sprintf("Open-loop cluster load, %d hosts (§2.1, §5)", hosts))

	arms := []struct {
		label  string
		policy sched.Policy
	}{
		{"first-response", sched.FirstResponse{}},
		{"random-2", sched.RandomK{K: params.SelectRandomK}},
		{"least-loaded", sched.LeastLoaded{}},
	}
	ran := make([]clusterLoadResult, len(arms))
	p.each(len(arms), func(i int) { ran[i] = runClusterLoadArm(arms[i].policy, seed, hosts) })
	res := map[string]clusterLoadResult{}
	for i, arm := range arms {
		a := ran[i]
		res[arm.label] = a
		for _, cl := range a.classes {
			r.row(fmt.Sprintf("%s p50/p99/p999, %s", cl.name, arm.label), "—",
				fmt.Sprintf("%.0f / %.0f / %.0f ms", cl.p50, cl.p99, cl.p999),
				fmt.Sprintf("%d jobs", cl.done))
			pfx := fmt.Sprintf("%s_%s_", cl.name, arm.label)
			r.metric(pfx+"p50_ms", cl.p50)
			r.metric(pfx+"p99_ms", cl.p99)
			r.metric(pfx+"p999_ms", cl.p999)
		}
		r.row("placement excess, "+arm.label, "—",
			fmt.Sprintf("%.2f ready", a.placeExcess),
			fmt.Sprintf("%.1f multicasts/job, %.0f%% warm", a.multicastsPerJob, a.warmShare*100))
		r.row("hot spots, "+arm.label, "—",
			fmt.Sprintf("fs %.2f MB, home %.2f MB", a.fsMB, a.homeMB),
			fmt.Sprintf("bus %.0f%% busy", a.busBusy*100))
		r.metric("place_excess_"+arm.label, a.placeExcess)
		r.metric("multicasts_per_job_"+arm.label, a.multicastsPerJob)
		r.metric("warm_share_"+arm.label, a.warmShare)
		r.metric("fs_mb_"+arm.label, a.fsMB)
		r.metric("home_mb_"+arm.label, a.homeMB)
		r.metric("bus_busy_"+arm.label, a.busBusy)
		r.metric("failed_"+arm.label, float64(a.failed))

		r.check(a.done+a.failed == a.total,
			"%s: %d done + %d failed != %d submitted", arm.label, a.done, a.failed, a.total)
		r.check(a.done >= a.total*9/10,
			"%s: only %d/%d jobs completed", arm.label, a.done, a.total)
	}

	first, least, rnd := res["first-response"], res["least-loaded"], res["random-2"]
	r.note("first-response pays a cluster-wide probe evaluation and a reply implosion per placement")
	r.note("load-aware policies place from the beacon-fed cache: one unicast probe on the warm path")
	r.note("least-loaded herds: submitters agree on the best host, race for it, and fall back cold")
	r.note("the shared file server is the hot spot every policy pays — the paper's §5 scaling worry")
	r.check(first.warmShare == 0,
		"first-response made warm-cache placements — baseline must stay multicast-only")
	r.check(first.multicastsPerJob >= 1,
		"first-response multicasts/job %.2f — baseline must multicast every placement",
		first.multicastsPerJob)
	for _, a := range []struct {
		label string
		res   clusterLoadResult
	}{{"random-2", rnd}, {"least-loaded", least}} {
		r.check(a.res.warmShare > 0.3,
			"%s warm share %.2f — beacon/cache path unused at scale", a.label, a.res.warmShare)
		r.check(a.res.multicastsPerJob < 1,
			"%s multicasts/job %.2f — cache failed to suppress multicast placement",
			a.label, a.res.multicastsPerJob)
	}
	r.check(rnd.warmShare > least.warmShare,
		"random-2 warm share %.2f not above least-loaded %.2f — expected herding penalty",
		rnd.warmShare, least.warmShare)
	for _, arm := range arms {
		a := res[arm.label]
		r.check(a.classes[0].p50 < a.classes[1].p50,
			"%s: lc p50 %.0f ms not below be p50 %.0f ms", arm.label, a.classes[0].p50, a.classes[1].p50)
		r.check(a.fsMB > 2*a.homeMB,
			"%s: fs hot spot %.2f MB not dominating home %.2f MB", arm.label, a.fsMB, a.homeMB)
	}
	return r
}

type clusterClassResult struct {
	name           string
	done           int
	p50, p99, p999 float64
}

type clusterLoadResult struct {
	total, done, failed int
	classes             []clusterClassResult
	placeExcess         float64
	multicastsPerJob    float64
	warmShare           float64
	fsMB, homeMB        float64
	busBusy             float64
}

// clusterLoadStream is the common workload every arm replays: the stream
// is seeded independently of the cluster so all policies see identical
// arrivals.
func clusterLoadStream(seed int64) workload.OpenLoop {
	return workload.OpenLoop{
		RatePerSec: 10,
		Duration:   15 * time.Second,
		Classes:    []workload.JobClass{workload.LatencyCritical(), workload.BestEffort()},
		Seed:       seed * 7919,
	}
}

func runClusterLoadArm(policy sched.Policy, seed int64, hosts int) clusterLoadResult {
	c := newCluster(core.Options{Workstations: hosts, Seed: seed, Select: policy})
	defer c.Close()
	ol := clusterLoadStream(seed)
	for _, img := range ol.Images() {
		c.Install(img)
	}
	arrivals := ol.Schedule()

	// Beacons are staggered 10 ms per host, so the slowest first
	// advertisement lands at hosts*10ms; warm up past it before the
	// stream starts so the policies run in steady state.
	warmup := time.Duration(hosts)*10*time.Millisecond + time.Second
	submitters := 10
	if submitters > hosts {
		submitters = hosts
	}

	// Placement quality, sampled at each selection: how many more ready
	// program-priority requests the chosen host had than the least-loaded
	// non-home candidate at that instant.
	var excessSum float64
	var excessN int
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind != trace.EvSelectChoice {
			return
		}
		chosen := c.NodeByLH(ev.LH)
		if chosen == nil {
			return
		}
		minDepth := -1
		for _, n := range c.Nodes {
			if uint16(n.Host.NIC.MAC()) == ev.Host || n.Host.Crashed() {
				continue
			}
			if d := n.Host.ReadyDepth(); minDepth < 0 || d < minDepth {
				minDepth = d
			}
		}
		if minDepth >= 0 {
			excessSum += float64(chosen.Host.ReadyDepth() - minDepth)
			excessN++
		}
	})

	total := len(arrivals)
	type jobDone struct {
		class int
		ms    float64
	}
	var (
		done   []jobDone
		failed int
	)
	for i, ar := range arrivals {
		ar := ar
		c.Node(i % submitters).Agent(func(a *core.Agent) {
			a.Sleep(warmup + ar.At)
			t0 := a.Now()
			var job *core.Job
			for attempt := 0; attempt < 5; attempt++ {
				j, err := a.ExecR(ar.Program, nil, "*", 0)
				if err == nil {
					job = j
					break
				}
				// Growing backoff: transient failures cluster at the
				// congestion peak, so spreading the retries matters more
				// than retrying fast.
				a.Sleep(time.Duration(attempt+1) * 500 * time.Millisecond)
			}
			if job == nil {
				failed++
				return
			}
			if _, err := a.Wait(job); err != nil {
				failed++
				return
			}
			done = append(done, jobDone{class: ar.Class, ms: a.Now().Sub(t0).Seconds() * 1000})
		})
	}

	maxService := time.Duration(0)
	for _, cl := range ol.Classes {
		if d := time.Duration(cl.MaxServiceMs) * time.Millisecond; d > maxService {
			maxService = d
		}
	}
	// Generous drain: under the congestion peak a job can ride several
	// retry backoffs plus the file-server queue, so the tail of the open
	// loop lands well after the last arrival.
	runTo := warmup + ol.Duration + maxService + 20*time.Second
	c.Run(runTo)

	out := clusterLoadResult{total: total, done: len(done), failed: failed}
	for ci, cl := range ol.Classes {
		var ts []float64
		for _, d := range done {
			if d.class == ci {
				ts = append(ts, d.ms)
			}
		}
		sort.Float64s(ts)
		out.classes = append(out.classes, clusterClassResult{
			name: cl.Name, done: len(ts),
			p50: percentile(ts, 0.50), p99: percentile(ts, 0.99), p999: percentile(ts, 0.999),
		})
	}
	if excessN > 0 {
		out.placeExcess = excessSum / float64(excessN)
	}
	var st sched.Stats
	var homeBytes int64
	for i := 0; i < submitters; i++ {
		s := c.Node(i).Selector.Stats()
		st.Queries += s.Queries
		st.WarmPicks += s.WarmPicks
		st.Multicasts += s.Multicasts
		tx, rx := c.Node(i).Host.NIC.ByteCounters()
		if tx+rx > homeBytes {
			homeBytes = tx + rx
		}
	}
	if st.Queries > 0 {
		out.multicastsPerJob = float64(st.Multicasts) / float64(st.Queries)
		out.warmShare = float64(st.WarmPicks) / float64(st.Queries)
	}
	fsTx, fsRx := c.FSHost.NIC.ByteCounters()
	out.fsMB = float64(fsTx+fsRx) / (1 << 20)
	out.homeMB = float64(homeBytes) / (1 << 20)
	bs := c.Bus.Stats()
	if el := c.Sim.Now().Seconds(); el > 0 {
		out.busBusy = bs.BusyTime.Seconds() / el
	}
	return out
}

// percentile reads the p-quantile from sorted data (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

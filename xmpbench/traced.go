package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"xmp/internal/chaos"
	"xmp/internal/exp"
	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/scenario"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// The traced pass rebuilds every cell from the layers' public
// constructors, in the order the campaign runners call them, so that the
// benchmark can put a span around each layer's part of a cell and read the
// layers' counters once the cell has run. Its shard files must carry
// exactly the cell data the timed pass produced.

// span is one timed call into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Cell   int     `json:"cell"` // -1 outside a cell
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; shards running concurrently share it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (IDs start at 1; parent 0 is the
// pass itself). A nil tracer records nothing.
func (t *tracer) start(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: now})
	return len(t.spans)
}

func (t *tracer) stop(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// total sums the durations of the spans with the given name; max returns
// the longest and min the shortest of them.
func (t *tracer) total(name string) float64 { s, _, _ := t.stats(name); return s }
func (t *tracer) max(name string) float64   { _, m, _ := t.stats(name); return m }
func (t *tracer) min(name string) float64   { _, _, m := t.stats(name); return m }

func (t *tracer) stats(name string) (sum, max, min float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		sum += d
		if n == 0 || d > max {
			max = d
		}
		if n == 0 || d < min {
			min = d
		}
		n++
	}
	return sum, max, min
}

// counters are a cell's (or a pass's) deterministic work counts, by
// metric name. They must repeat exactly for a given seed and source tree.
type counters map[string]int64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// cellCounters reads the layers' public getters after a cell has run.
func cellCounters(eng *sim.Engine, net *topo.Network, arena *mptcp.Arena, launched, completed, faults int) counters {
	c := counters{
		"sim.events":               int64(eng.Processed()),
		"sim.promoted":             int64(eng.Promoted()),
		"sim.recycled":             int64(eng.Recycled()),
		"sim.simulated_ns":         int64(eng.Now()),
		"netem.pool_allocs":        net.Pool.Allocs(),
		"netem.pool_recycles":      net.Pool.Recycles(),
		"topo.links":               int64(len(net.Links())),
		"mptcp.flows_fresh":        arena.Fresh(),
		"mptcp.flows_recycled":     arena.Recycled(),
		"workload.flows_launched":  int64(launched),
		"workload.flows_completed": int64(completed),
		"chaos.faults_applied":     int64(faults),
	}
	for _, layer := range []string{topo.LayerCore, topo.LayerAggregation, topo.LayerRack} {
		st := net.TotalQueueStats(layer)
		c["netem.enqueued"] += st.EnqueuedPackets
		c["netem.drops"] += st.DroppedPackets
		c["netem.marks"] += st.MarkedPackets
		c["netem.max_queue"] += int64(st.MaxLen)
	}
	return c
}

// cellEnv is what every traced cell builds before its generators start.
type cellEnv struct {
	tr           *tracer
	parent, cell int
	eng          *sim.Engine
	arena        *mptcp.Arena
}

func newCellEnv(tr *tracer, parent, cell int) *cellEnv {
	return &cellEnv{tr: tr, parent: parent, cell: cell, eng: sim.NewEngine(), arena: mptcp.NewArena()}
}

// timed runs fn inside a span named name.
func (e *cellEnv) timed(name string, fn func()) {
	id := e.tr.start(name, e.parent, e.cell)
	fn()
	e.tr.stop(id)
}

func (e *cellEnv) fatTree(qm topo.QueueMaker, k int) *topo.FatTree {
	tc := topo.DefaultFatTreeConfig(qm)
	tc.K = k
	var ft *topo.FatTree
	e.timed("topo.build", func() { ft = topo.NewFatTree(e.eng, tc) })
	return ft
}

func (e *cellEnv) base(fab topo.Fabric, rng *sim.RNG, scheme workload.Scheme, col *workload.Collector, stop sim.Duration) workload.Config {
	return workload.Config{
		Net:       fab,
		RNG:       rng,
		Scheme:    scheme,
		Transport: transport.DefaultConfig(),
		Collector: col,
		Stop:      sim.Time(stop),
		Arena:     e.arena,
	}
}

// chaosAndRun installs the schedule, if any, and runs the engine dry. It
// returns the number of faults applied.
func (e *cellEnv) chaosAndRun(net *topo.Network, sched *chaos.Schedule) int {
	var inj *chaos.Injector
	if sched != nil {
		e.timed("chaos.install", func() {
			var err error
			if inj, err = chaos.New(net, *sched); err != nil {
				panic(fmt.Sprintf("chaos schedule does not resolve: %v", err))
			}
			inj.Install()
		})
	}
	e.timed("sim.run", func() { e.eng.RunAll(4_000_000_000) })
	if inj == nil {
		return 0
	}
	return inj.Applied()
}

// fctBins folds a collector's per-size distributions.
func fctBins(col *workload.Collector) (bins [workload.FCTBins]exp.FCTBinPoint) {
	for i, d := range col.FCTBySize {
		bins[i] = exp.FCTBinPoint{Flows: float64(d.N()), P50Ms: d.Percentile(50), P99Ms: d.Percentile(99), P999Ms: d.Percentile(99.9)}
	}
	return bins
}

// matrixCell is exp.RunFatTree for the Permutation pattern, with cfg the
// timed cell's (defaulted) config.
func matrixCell(e *cellEnv, cfg exp.FatTreeConfig) (*exp.FatTreeResult, counters) {
	if cfg.Pattern != exp.Permutation {
		panic(fmt.Sprintf("traced pass supports the %s pattern only, not %s", exp.Permutation, cfg.Pattern))
	}
	ft := e.fatTree(topo.ECNMaker(cfg.QueueLimit, cfg.MarkThreshold), cfg.K)
	col := workload.NewCollector(cfg.RTTStride)
	var perm *workload.Permutation
	e.timed("workload.start", func() {
		perm = workload.StartPermutation(workload.PermutationConfig{
			Config:   e.base(ft, sim.NewRNG(cfg.Seed), cfg.Scheme, col, cfg.Duration),
			MinBytes: 64 << 20 / cfg.SizeScale,
			MaxBytes: 512 << 20 / cfg.SizeScale,
		})
	})
	faults := e.chaosAndRun(ft.Network, cfg.Chaos)
	var res *exp.FatTreeResult
	var k counters
	e.timed("collect", func() {
		ft.CheckRoutingSanity()
		now := e.eng.Now()
		res = &exp.FatTreeResult{
			Config:      cfg,
			Collector:   col,
			UtilByLayer: map[string]*metrics.Dist{},
			SimDuration: sim.Duration(now),
			Events:      e.eng.Processed(),
		}
		for _, layer := range []string{topo.LayerCore, topo.LayerAggregation, topo.LayerRack} {
			d := &metrics.Dist{}
			for _, l := range ft.LinksByLayer(layer) {
				d.Add(l.Utilization(now))
			}
			res.UtilByLayer[layer] = d
			st := ft.TotalQueueStats(layer)
			res.Drops += st.DroppedPackets
			res.Marks += st.MarkedPackets
		}
		k = cellCounters(e.eng, ft.Network, e.arena, perm.Rounds*ft.NumHosts(), col.FCT.N(), faults)
	})
	return res, k
}

// fctCell is exp.RunFCTCell as the scenario compiler lowers an fct
// workload onto it.
func fctCell(e *cellEnv, r *scenario.Spec, w scenario.WorkloadSpec) (exp.FCTPoint, counters) {
	ft := e.fatTree(topo.ECNMaker(r.Topology.QueueLimit, r.Topology.MarkThreshold), r.Topology.K)
	var scheme workload.Scheme
	if w.Scheme != "" {
		var err error
		if scheme, err = workload.ParseScheme(w.Scheme); err != nil {
			panic(err)
		}
	}
	col := workload.NewCollector(16)
	base := e.base(ft, sim.NewRNG(r.Scale.Seed), scheme, col, duration(r))
	var launched *int
	e.timed("workload.start", func() {
		switch w.Kind {
		case "shortflows":
			launched = &workload.StartShortFlows(workload.ShortFlowsConfig{
				Config: base, Alpha: w.Alpha, MeanBytes: w.MeanBytes, MinBytes: w.MinBytes, MaxBytes: w.MaxBytes, PerHost: w.PerHost,
			}).Launched
		case "incast-burst":
			launched = &workload.StartIncastBurst(workload.IncastBurstConfig{
				Config: base, Senders: w.Senders, ResponseBytes: w.ResponseBytes, Rounds: w.Rounds, UseScheme: w.Scheme != "",
			}).Launched
		default:
			panic(fmt.Sprintf("fct workload kind %q", w.Kind))
		}
	})
	e.chaosAndRun(ft.Network, nil)
	var p exp.FCTPoint
	var k counters
	e.timed("collect", func() {
		p = exp.FCTPoint{
			Cell: w.Name, Launched: *launched, Flows: col.FCT.N(),
			P50Ms: col.FCT.Percentile(50), P95Ms: col.FCT.Percentile(95),
			P99Ms: col.FCT.Percentile(99), P999Ms: col.FCT.Percentile(99.9),
			BySize: fctBins(col),
		}
		k = cellCounters(e.eng, ft.Network, e.arena, *launched, col.FCT.N(), 0)
		p.Drops = k["netem.drops"]
	})
	return p, k
}

// robustnessCell is exp.RunChaosCell as the scenario compiler lowers a
// robustness cell onto it.
func robustnessCell(e *cellEnv, r *scenario.Spec, scheme workload.Scheme, seed int64, label string) (exp.RobustnessPoint, counters) {
	if r.Topology.Kind != "fattree" {
		panic(fmt.Sprintf("traced pass supports fattree topologies only, not %s", r.Topology.Kind))
	}
	rng := sim.NewRNG(seed)
	t := r.Topology
	qm := topo.ECNMaker(t.QueueLimit, t.MarkThreshold)
	if t.Lossy {
		// Forked before anything else draws from rng, as RunChaosCell does.
		lossRNG := rng.Fork(99)
		qm = func(ba *netem.BuildArena) netem.Queue {
			return netem.NewLossy(ba.NewThresholdECN(t.QueueLimit, t.MarkThreshold), 0, lossRNG)
		}
	}
	ft := e.fatTree(qm, t.K)
	col := workload.NewCollector(16)
	base := e.base(ft, rng, scheme, col, duration(r))
	var random *workload.Random
	var short *workload.ShortFlows
	e.timed("workload.start", func() {
		// Random starts before the short-flow loops, as in RunChaosCell.
		for _, w := range r.Workloads {
			if w.Kind == "random" {
				random = workload.StartRandom(workload.RandomConfig{
					Config: base, ParetoMeanBytes: w.MeanBytes, ParetoMaxBytes: w.MaxBytes, MaxFlowsPerDst: w.MaxFlowsPerDst,
				})
			}
		}
		for _, w := range r.Workloads {
			if w.Kind == "shortflows" {
				short = workload.StartShortFlows(workload.ShortFlowsConfig{
					Config: base, Alpha: w.Alpha, MeanBytes: w.MeanBytes, MinBytes: w.MinBytes, MaxBytes: w.MaxBytes, PerHost: w.PerHost,
				})
			}
		}
	})
	var sched *chaos.Schedule
	if r.Chaos != nil {
		s := r.Chaos.Schedule()
		sched = &s
	}
	faults := e.chaosAndRun(ft.Network, sched)
	var p exp.RobustnessPoint
	var k counters
	e.timed("collect", func() {
		p = exp.RobustnessPoint{
			Scheme: label, GoodputMbps: col.Goodput.Mean(), Flows: col.FlowsCompleted, Faults: faults,
			P50Ms: col.FCT.Percentile(50), P95Ms: col.FCT.Percentile(95),
			P99Ms: col.FCT.Percentile(99), P999Ms: col.FCT.Percentile(99.9),
			BySize: fctBins(col),
		}
		for _, li := range ft.Links() {
			p.Drops += li.Queue().Stats().DroppedPackets
		}
		launched := 0
		if random != nil {
			launched += random.Launched
		}
		if short != nil {
			launched += short.Launched
		}
		k = cellCounters(e.eng, ft.Network, e.arena, launched, col.FCT.N(), faults)
	})
	return p, k
}

// duration is an fct or robustness cell's horizon; 0 means the 40 ms the
// cell runners default to.
func duration(r *scenario.Spec) sim.Duration {
	d := sim.Duration(r.DurationMS * float64(sim.Millisecond))
	if d == 0 {
		d = 40 * sim.Millisecond
	}
	return d
}

// tracedShard runs a shard's cells one at a time under spans and encodes
// the shard file the campaign runner would have produced.
func tracedShard[T any](tr *tracer, c *scenario.Compiled, s exp.ShardSpec, header json.RawMessage, ctrs []counters,
	cell func(e *cellEnv) (T, counters)) ([]byte, error) {
	id := tr.start("exp.shard", 0, -1)
	defer tr.stop(id)
	var cells []exp.ShardCell[T]
	for _, i := range s.Owned(c.Cells()) {
		cid := tr.start("exp.cell", id, i)
		p, k := cell(newCellEnv(tr, cid, i))
		tr.stop(cid)
		cells = append(cells, exp.ShardCell[T]{Cell: i, Data: p})
		ctrs[i] = k
	}
	f := &exp.ShardFile[T]{Manifest: exp.NewShardManifest(c.Campaign, c.Desc, s, c.Cells()), Header: header, Cells: cells}
	eid := tr.start("exp.encode", id, -1)
	defer tr.stop(eid)
	var buf bytes.Buffer
	err := f.Encode(&buf)
	return buf.Bytes(), err
}

// tracedPass replays the workload under spans: compile, every shard
// concurrently, merge and render. timed is the timed pass's merged result,
// whose matrix cell configs carry the defaults the campaign applied.
func tracedPass(tr *tracer, w *workloadDef, seed int64, timed *exp.MergeResult) (pass, []counters, error) {
	id := tr.start("scenario.compile", 0, -1)
	c, err := compileSpec(w, seed)
	tr.stop(id)
	if err != nil {
		return pass{}, nil, err
	}
	sch, err := schemes(c)
	if err != nil {
		return pass{}, nil, err
	}
	labels, err := rowLabels(c)
	if err != nil {
		return pass{}, nil, err
	}
	ctrs := make([]counters, c.Cells())
	r := c.Spec
	var run func(exp.ShardSpec) ([]byte, error)
	switch r.Family {
	case scenario.FamilyMatrix:
		m := timed.Matrix
		header, err := json.Marshal(struct {
			Patterns []exp.Pattern     `json:"patterns"`
			Schemes  []workload.Scheme `json:"schemes"`
		}{m.Patterns, m.Schemes})
		if err != nil {
			return pass{}, nil, err
		}
		run = func(s exp.ShardSpec) ([]byte, error) {
			return tracedShard(tr, c, s, header, ctrs, func(e *cellEnv) (*exp.FatTreeResult, counters) {
				return matrixCell(e, m.Get(m.Patterns[e.cell/len(m.Schemes)], m.Schemes[e.cell%len(m.Schemes)]).Config)
			})
		}
	case scenario.FamilyFCT:
		run = func(s exp.ShardSpec) ([]byte, error) {
			return tracedShard(tr, c, s, nil, ctrs, func(e *cellEnv) (exp.FCTPoint, counters) {
				return fctCell(e, r, r.Workloads[e.cell])
			})
		}
	case scenario.FamilyRobustness:
		run = func(s exp.ShardSpec) ([]byte, error) {
			return tracedShard(tr, c, s, nil, ctrs, func(e *cellEnv) (exp.RobustnessPoint, counters) {
				n := len(r.Seeds)
				return robustnessCell(e, r, sch[e.cell/n], r.Seeds[e.cell%n], labels[e.cell])
			})
		}
	default:
		return pass{}, nil, fmt.Errorf("family %q", r.Family)
	}
	return runShards(tr, c.Cells(), w.Shards, run), ctrs, nil
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"xmp/internal/exp"
	"xmp/internal/scenario"
	"xmp/internal/workload"
)

// workloadDef is one fixed campaign workload. Paths are relative to the
// repository root, which is the working directory of every run.
type workloadDef struct {
	Name string
	// Spec is the scenario spec the workload compiles.
	Spec string
	// Golden is the checked-in reference output at the default seed.
	Golden string
	// Shards is how many shards run concurrently in the one process; their
	// blobs always go through exp.MergeShardBlobs.
	Shards int
	// Rows compares each cell's rows with the same rows of Golden instead
	// of the whole output: the workload renders a subset of the golden
	// campaign's cells.
	Rows bool
}

// workloads are the benchmark's three workloads. Each stresses a
// different mix of layers; README.md gives the reasons.
var workloads = []workloadDef{
	{Name: "bulk-permutation", Spec: "xmpbench/specs/bulk-permutation.json", Golden: "results_matrix.txt", Shards: 1, Rows: true},
	{Name: "fct-shortflow", Spec: "scenarios/fct.json", Golden: "results_fct.txt", Shards: 1},
	{Name: "robustness-sharded", Spec: "scenarios/robustness.json", Golden: "results_robustness.txt", Shards: 2},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// compileSpec is the set-up a campaign pays before its first cell: spec
// load, parse, compile and the chaos-target check (which builds a
// throwaway fabric when the spec has a schedule). A seed other than the
// default overrides scale.seed in this in-memory copy only.
func compileSpec(w *workloadDef, seed int64) (*scenario.Compiled, error) {
	data, err := os.ReadFile(w.Spec)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	if seed != defaultSeed {
		sc := scenario.ScaleSpec{}
		if s.Scale != nil {
			sc = *s.Scale
		}
		sc.Seed = seed
		s.Scale = &sc
	}
	c, err := scenario.Compile(s, filepath.Dir(w.Spec))
	if err != nil {
		return nil, err
	}
	return c, c.CheckTargets()
}

// schemes parses the compiled spec's scheme axis.
func schemes(c *scenario.Compiled) ([]workload.Scheme, error) {
	out := make([]workload.Scheme, len(c.Spec.Schemes))
	for i, label := range c.Spec.Schemes {
		s, err := workload.ParseScheme(label)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// rowLabels returns, per cell, the first column of the rows that cell
// renders: the scheme label for matrix and robustness cells, the workload
// name for fct cells.
func rowLabels(c *scenario.Compiled) ([]string, error) {
	r := c.Spec
	sch, err := schemes(c)
	if err != nil {
		return nil, err
	}
	var labels []string
	switch r.Family {
	case scenario.FamilyMatrix:
		for range r.Workloads {
			for _, s := range sch {
				labels = append(labels, s.Label())
			}
		}
	case scenario.FamilyRobustness:
		for _, s := range sch {
			for _, seed := range r.Seeds {
				l := s.Label()
				if len(r.Seeds) > 1 {
					l = fmt.Sprintf("%s@s%d", l, seed)
				}
				labels = append(labels, l)
			}
		}
	case scenario.FamilyFCT:
		for _, w := range r.Workloads {
			labels = append(labels, w.Name)
		}
	}
	if len(labels) != c.Cells() {
		return nil, fmt.Errorf("%d row labels for %d cells", len(labels), c.Cells())
	}
	return labels, nil
}

// pass is one execution of a workload's cells through shards, merge and
// render.
type pass struct {
	Output []byte
	Blobs  []exp.ShardBlob
	Merged *exp.MergeResult
	// Failed holds the cells that errored or panicked, or that the merge
	// could not place; Errs says why.
	Failed map[int]bool
	Errs   []string
}

// runShards runs every shard of a cells-cell campaign concurrently, merges
// the blobs and renders the result, with spans around merge and render
// when tr is not nil. A shard that errors or panics fails all of its
// cells; a failed merge fails every cell.
func runShards(tr *tracer, cells, shards int, run func(exp.ShardSpec) ([]byte, error)) pass {
	p := pass{Failed: map[int]bool{}}
	blobs := make([]exp.ShardBlob, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range blobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := exp.ShardSpec{Index: i, Count: shards}
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("shard %s panicked: %v", s, r)
				}
			}()
			data, err := run(s)
			blobs[i] = exp.ShardBlob{Name: "shard " + s.String(), Data: data}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			p.Errs = append(p.Errs, err.Error())
			for _, c := range (exp.ShardSpec{Index: i, Count: shards}).Owned(cells) {
				p.Failed[c] = true
			}
		}
	}
	if len(p.Errs) > 0 {
		return p
	}
	id := tr.start("exp.merge", 0, -1)
	res, err := exp.MergeShardBlobs(blobs)
	tr.stop(id)
	if err != nil {
		p.Errs = append(p.Errs, "merge: "+err.Error())
		for c := 0; c < cells; c++ {
			p.Failed[c] = true
		}
		return p
	}
	var buf bytes.Buffer
	id = tr.start("exp.render", 0, -1)
	res.Render(&buf)
	tr.stop(id)
	p.Output, p.Blobs, p.Merged = buf.Bytes(), blobs, res
	return p
}

// runCampaign is the timed pass: the public campaign path, one worker per
// shard so cells run one at a time within each shard.
func runCampaign(c *scenario.Compiled, shards int) pass {
	params := exp.RunParams{Scenario: c.JSON, Jobs: 1}
	return runShards(nil, c.Cells(), shards, func(s exp.ShardSpec) ([]byte, error) {
		data, _, err := exp.RunCampaignShard(exp.CampaignScenario, params, s, nil)
		return data, err
	})
}

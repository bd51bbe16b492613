package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reassembles sharded campaigns. A ShardFile is what one
// `xmpsim <campaign> -shard i/n -json` invocation exports; merge validates
// that a set of shard files forms an exact, config-consistent partition of
// one campaign's cell space and rebuilds the campaign result, whose
// rendered tables are byte-identical to an unsharded run (pinned by
// TestMatrixShardMergeByteIdentical and the full-scale golden-drift test).

// Campaign names, matching the xmpsim subcommands that produce them.
const (
	CampaignMatrix     = "matrix"
	CampaignTable2     = "table2"
	CampaignParams     = "params"
	CampaignIncast     = "incastsweep"
	CampaignSACK       = "sack"
	CampaignSubflow    = "sweep"
	CampaignFCT        = "fct"
	CampaignAblation   = "ablation"
	CampaignVL2        = "vl2"
	CampaignRobustness = "robustness"
)

// ShardFile is one shard's export: the manifest, an optional
// campaign-specific header (matrix axes, table2 config), and the owned
// cells with their campaign cell indices.
type ShardFile[T any] struct {
	Manifest ShardManifest   `json:"manifest"`
	Header   json.RawMessage `json:"header,omitempty"`
	Cells    []ShardCell[T]  `json:"cells"`
}

// ShardManifest returns the file's manifest; with Encode it forms the
// type-erased view the campaign registry hands to the dispatch layer.
func (f *ShardFile[T]) ShardManifest() ShardManifest { return f.Manifest }

// Encode writes the shard file as compact JSON on one line. The decoder
// ignores whitespace, so indented shard files still merge.
func (f *ShardFile[T]) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(f)
}

// ShardBlob is one shard file's raw bytes plus a name for error messages.
type ShardBlob struct {
	Name string
	Data []byte
}

func decodeShards[T any](blobs []ShardBlob) ([]*ShardFile[T], error) {
	files := make([]*ShardFile[T], 0, len(blobs))
	for _, b := range blobs {
		var f ShardFile[T]
		if err := json.Unmarshal(b.Data, &f); err != nil {
			return nil, fmt.Errorf("%s: %v", b.Name, err)
		}
		files = append(files, &f)
	}
	return files, nil
}

// ValidateShardSet checks that a set of manifests describes an exact
// partition of one campaign: same schema version, campaign, config hash,
// shard count and cell count everywhere; no shard given twice; every cell
// owned by exactly one shard (no overlap, no gap).
func ValidateShardSet(ms []ShardManifest) error {
	if len(ms) == 0 {
		return fmt.Errorf("no shard files given")
	}
	ref := ms[0]
	byIndex := make(map[int]bool, len(ms))
	for _, m := range ms {
		if m.SchemaVersion != ShardSchemaVersion {
			return fmt.Errorf("shard %d/%d: schema version %d, this binary reads %d",
				m.ShardIndex, m.ShardCount, m.SchemaVersion, ShardSchemaVersion)
		}
		if m.Campaign != ref.Campaign {
			return fmt.Errorf("campaign mismatch: %q vs %q", ref.Campaign, m.Campaign)
		}
		if m.ConfigHash != ref.ConfigHash {
			return fmt.Errorf("config mismatch: shard %d/%d ran %q, shard %d/%d ran %q",
				ref.ShardIndex, ref.ShardCount, ref.Config, m.ShardIndex, m.ShardCount, m.Config)
		}
		if m.ShardCount != ref.ShardCount {
			return fmt.Errorf("shard count mismatch: %d/%d vs %d/%d",
				ref.ShardIndex, ref.ShardCount, m.ShardIndex, m.ShardCount)
		}
		if m.TotalCells != ref.TotalCells {
			return fmt.Errorf("cell count mismatch: shard %d/%d has %d total cells, shard %d/%d has %d",
				ref.ShardIndex, ref.ShardCount, ref.TotalCells, m.ShardIndex, m.ShardCount, m.TotalCells)
		}
		if m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount {
			return fmt.Errorf("shard index %d outside [0,%d)", m.ShardIndex, m.ShardCount)
		}
		if byIndex[m.ShardIndex] {
			return fmt.Errorf("shard %d/%d given twice (overlap)", m.ShardIndex, m.ShardCount)
		}
		byIndex[m.ShardIndex] = true
	}
	owner := make([]int, ref.TotalCells)
	for i := range owner {
		owner[i] = -1
	}
	for _, m := range ms {
		for _, c := range m.CellIndices {
			if c < 0 || c >= ref.TotalCells {
				return fmt.Errorf("shard %d/%d claims cell %d outside [0,%d)",
					m.ShardIndex, m.ShardCount, c, ref.TotalCells)
			}
			if owner[c] != -1 {
				return fmt.Errorf("cell %d appears in both shard %d/%d and shard %d/%d (overlap)",
					c, owner[c], ref.ShardCount, m.ShardIndex, m.ShardCount)
			}
			owner[c] = m.ShardIndex
		}
	}
	var missing []int
	for c, o := range owner {
		if o == -1 {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		var have []int
		for i := range byIndex {
			have = append(have, i)
		}
		sort.Ints(have)
		return fmt.Errorf("cells %v missing (gap): have shards %v of %d — is a shard file absent?",
			missing, have, ref.ShardCount)
	}
	return nil
}

// MergeShardCells validates a shard set and returns its cell payloads in
// campaign cell order.
func MergeShardCells[T any](files []*ShardFile[T]) ([]T, error) {
	ms := make([]ShardManifest, len(files))
	for i, f := range files {
		ms[i] = f.Manifest
	}
	if err := ValidateShardSet(ms); err != nil {
		return nil, err
	}
	out := make([]T, ms[0].TotalCells)
	for _, f := range files {
		if len(f.Cells) != len(f.Manifest.CellIndices) {
			return nil, fmt.Errorf("shard %d/%d: manifest lists %d cells but file carries %d",
				f.Manifest.ShardIndex, f.Manifest.ShardCount, len(f.Manifest.CellIndices), len(f.Cells))
		}
		for i, c := range f.Cells {
			if c.Cell != f.Manifest.CellIndices[i] {
				return nil, fmt.Errorf("shard %d/%d: cell %d in file where manifest lists %d",
					f.Manifest.ShardIndex, f.Manifest.ShardCount, c.Cell, f.Manifest.CellIndices[i])
			}
			out[c.Cell] = c.Data
		}
	}
	return out, nil
}

func mergeList[T any](blobs []ShardBlob) ([]T, error) {
	files, err := decodeShards[T](blobs)
	if err != nil {
		return nil, err
	}
	return MergeShardCells(files)
}

// MergeResult is a reassembled campaign: exactly one field (matching
// Campaign) is populated.
type MergeResult struct {
	Campaign string
	// Config is the shard set's config description. For scenario-compiled
	// campaigns it embeds the resolved spec, which is where Render finds
	// the scenario's metric selection.
	Config   string
	Matrix   *Matrix
	Table2   []*Table2Result
	Params   []ParamPoint
	Incast   []IncastSweepPoint
	SACK     []SACKAblationResult
	Subflow  []SubflowSweepResult
	Ablation []AblationResult
	VL2      []VL2Point
	FCT      []FCTPoint
	Robust   []RobustnessPoint
}

// MergeShardBlobs decodes, validates and reassembles a set of shard files
// (any campaign, any shard count) into the full campaign result.
func MergeShardBlobs(blobs []ShardBlob) (*MergeResult, error) {
	if len(blobs) == 0 {
		return nil, fmt.Errorf("no shard files given")
	}
	var peek struct {
		Manifest ShardManifest `json:"manifest"`
	}
	if err := json.Unmarshal(blobs[0].Data, &peek); err != nil {
		return nil, fmt.Errorf("%s: %v", blobs[0].Name, err)
	}
	res := &MergeResult{Campaign: peek.Manifest.Campaign, Config: peek.Manifest.Config}
	var err error
	switch peek.Manifest.Campaign {
	case CampaignMatrix:
		var files []*ShardFile[*FatTreeResult]
		if files, err = decodeShards[*FatTreeResult](blobs); err == nil {
			res.Matrix, err = MergeMatrixShards(files)
		}
	case CampaignTable2:
		var files []*ShardFile[Table2Cell]
		if files, err = decodeShards[Table2Cell](blobs); err == nil {
			res.Table2, err = MergeTable2Shards(files)
		}
	case CampaignParams:
		res.Params, err = mergeList[ParamPoint](blobs)
	case CampaignIncast:
		res.Incast, err = mergeList[IncastSweepPoint](blobs)
	case CampaignSACK:
		res.SACK, err = mergeList[SACKAblationResult](blobs)
	case CampaignSubflow:
		res.Subflow, err = mergeList[SubflowSweepResult](blobs)
	case CampaignAblation:
		res.Ablation, err = mergeList[AblationResult](blobs)
	case CampaignVL2:
		res.VL2, err = mergeList[VL2Point](blobs)
	case CampaignFCT:
		res.FCT, err = mergeList[FCTPoint](blobs)
	case CampaignRobustness:
		res.Robust, err = mergeList[RobustnessPoint](blobs)
	default:
		err = fmt.Errorf("%s: unknown campaign %q", blobs[0].Name, peek.Manifest.Campaign)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the merged campaign exactly as the unsharded xmpsim
// subcommand prints it to stdout — byte-identical, so merged output diffs
// cleanly against the checked-in results_*.txt goldens (minus the stderr
// timing trailer).
func (r *MergeResult) Render(w io.Writer) {
	if metrics := scenarioMetrics(r.Config); len(metrics) > 0 {
		r.renderMetrics(w, metrics)
		return
	}
	switch r.Campaign {
	case CampaignMatrix:
		r.Matrix.RenderCampaign(w)
	case CampaignTable2:
		RenderTable2Campaign(w, r.Table2)
	case CampaignParams:
		RenderParamSweep(w, r.Params)
	case CampaignIncast:
		RenderIncastSweep(w, r.Incast)
	case CampaignSACK:
		RenderSACKAblation(w, r.SACK)
	case CampaignSubflow:
		RenderSubflowSweep(w, r.Subflow)
	case CampaignAblation:
		RenderAblations(w, r.Ablation)
	case CampaignVL2:
		RenderVL2(w, r.VL2)
	case CampaignFCT:
		RenderFCT(w, r.FCT)
	case CampaignRobustness:
		RenderRobustness(w, r.Robust)
	}
}

// scenarioMetrics extracts the metric selection from a scenario-compiled
// config description ("scenario {...resolved spec...}") without importing
// the scenario package — exp cannot depend on its own client. Non-scenario
// configs, and scenario specs with no metrics field, return nil, which
// Render treats as "everything" via the family's full renderer.
func scenarioMetrics(config string) []string {
	const prefix = "scenario "
	if !strings.HasPrefix(config, prefix) {
		return nil
	}
	var s struct {
		Metrics []string `json:"metrics"`
	}
	if json.Unmarshal([]byte(config[len(prefix):]), &s) != nil {
		return nil
	}
	return s.Metrics
}

// renderMetrics renders a scenario's selected tables, in spec order, with
// the same inter-table structure the full renderers use — so a spec that
// lists all of its family's tables renders byte-identically to one that
// lists none.
func (r *MergeResult) renderMetrics(w io.Writer, metrics []string) {
	switch r.Campaign {
	case CampaignMatrix:
		for _, m := range metrics {
			fmt.Fprintln(w)
			switch m {
			case "table1":
				r.Matrix.RenderTable1(w)
			case "table3":
				r.Matrix.RenderTable3(w)
			case "fig8":
				r.Matrix.RenderFig8(w)
			case "fig9":
				r.Matrix.RenderFig9(w)
			case "fig10":
				r.Matrix.RenderFig10(w)
			case "fig11":
				r.Matrix.RenderFig11(w)
			}
		}
	case CampaignFCT:
		for i, m := range metrics {
			if i > 0 {
				fmt.Fprintln(w)
			}
			switch m {
			case "summary":
				RenderFCTSummary(w, r.FCT)
			case "by-size":
				RenderFCTBySize(w, r.FCT)
			}
		}
	case CampaignRobustness:
		for i, m := range metrics {
			if i > 0 {
				fmt.Fprintln(w)
			}
			switch m {
			case "summary":
				RenderRobustnessSummary(w, r.Robust)
			case "by-size":
				RenderRobustnessBySize(w, r.Robust)
			}
		}
	}
}

// WriteJSON emits the merged campaign's machine-readable results where the
// unsharded CLI supports -json (the matrix plot schema).
func (r *MergeResult) WriteJSON(w io.Writer) error {
	if r.Campaign != CampaignMatrix {
		return fmt.Errorf("merge -json supports the %s campaign, not %s", CampaignMatrix, r.Campaign)
	}
	return r.Matrix.WriteJSON(w)
}

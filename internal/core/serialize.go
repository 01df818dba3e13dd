package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"sizeless/internal/features"
	"sizeless/internal/nn"
	"sizeless/internal/platform"
)

// savedModel is the JSON shape of a persisted model.
type savedModel struct {
	Base         int        `json:"base"`
	Sizes        []int      `json:"sizes"`
	FeatureNames []string   `json:"features"`
	Targets      []int      `json:"targets"`
	Scaler       *nn.Scaler `json:"scaler"`
	// Networks holds one nn-package JSON blob per ensemble member.
	Networks []json.RawMessage `json:"networks"`
	// Provenance records transfer-learning lineage for adapted models.
	// Omitted for models trained from scratch; absent in model files
	// written before adaptation metadata existed.
	Provenance *Provenance `json:"provenance,omitempty"`
}

func saveModel(m *Model, w io.Writer) error {
	s := savedModel{
		Base:         int(m.cfg.Base),
		FeatureNames: features.Names(m.cfg.Features),
		Scaler:       m.scaler,
	}
	if m.prov != (Provenance{}) {
		prov := m.prov
		s.Provenance = &prov
	}
	for _, net := range m.nets {
		var netBuf bytes.Buffer
		if err := net.Save(&netBuf); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		s.Networks = append(s.Networks, json.RawMessage(netBuf.Bytes()))
	}
	for _, sz := range m.cfg.Sizes {
		s.Sizes = append(s.Sizes, int(sz))
	}
	for _, t := range m.targets {
		s.Targets = append(s.Targets, int(t))
	}
	if err := json.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Fingerprint returns a stable 64-bit FNV-1a hash of the model's
// serialized form, hex-encoded. Saving is deterministic (ordered JSON
// fields, shortest-round-trip floats), so two models fingerprint equal
// exactly when their persisted state — weights, scaler, grid, provenance —
// is identical. The serve daemon stamps it into snapshot headers so an
// operator can tell which model generation a fleet snapshot belongs to.
//
// The hash is computed once per model and memoized: a model is never
// mutated after construction returns (FineTune adapts a clone), and
// serializing a paper-shape model takes hundreds of milliseconds.
func (m *Model) Fingerprint() (string, error) {
	m.fpOnce.Do(func() {
		h := fnv.New64a()
		if err := saveModel(m, h); err != nil {
			m.fpErr = fmt.Errorf("core: fingerprint: %w", err)
			return
		}
		m.fp = fmt.Sprintf("%016x", h.Sum64())
	})
	return m.fp, m.fpErr
}

// LoadModel reconstructs a model persisted with Model.Save. Only the parts
// needed for prediction are restored (weights, scaler, feature set).
func LoadModel(r io.Reader) (*Model, error) {
	var s savedModel
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	feats := make([]features.Feature, 0, len(s.FeatureNames))
	for _, name := range s.FeatureNames {
		f, err := features.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
		feats = append(feats, f)
	}
	if len(s.Networks) == 0 {
		return nil, fmt.Errorf("core: load: no networks")
	}
	nets := make([]*nn.Network, 0, len(s.Networks))
	for _, blob := range s.Networks {
		net, err := nn.Load(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
		nets = append(nets, net)
	}
	if s.Scaler == nil {
		return nil, fmt.Errorf("core: load: missing scaler")
	}
	m := &Model{
		cfg: ModelConfig{
			Base:     platform.MemorySize(s.Base),
			Features: feats,
		},
		scaler: s.Scaler,
		nets:   nets,
	}
	if s.Provenance != nil {
		m.prov = *s.Provenance
	}
	for _, sz := range s.Sizes {
		m.cfg.Sizes = append(m.cfg.Sizes, platform.MemorySize(sz))
	}
	for _, t := range s.Targets {
		m.targets = append(m.targets, platform.MemorySize(t))
	}
	if len(m.targets) == 0 {
		return nil, fmt.Errorf("core: load: no target sizes")
	}
	if err := m.initDerived(); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return m, nil
}

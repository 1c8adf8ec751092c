package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/pretrained"
	"repro/internal/tasks"
)

// mcModels returns the three general-purpose profile models, mirroring
// Table 1's Llama3.1 / Qwen2.5 / Falcon3 roster for the MC suites.
func mcModels(cfg Config) (map[model.Family]*model.Model, error) {
	out := make(map[model.Family]*model.Model, 3)
	for _, fam := range model.Families {
		m, err := pretrained.ProfileModel(fam.String(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		out[fam] = m
	}
	return out, nil
}

// mcSuites builds the five multiple-choice suites.
func mcSuites(cfg Config) ([]*tasks.Suite, error) {
	var out []*tasks.Suite
	for _, name := range tasks.MCSuiteNames() {
		s, err := pretrained.Suite(name, cfg.Seed, cfg.Instances)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// namedModel pairs a display name (the paper's model) with a checkpoint.
type namedModel struct {
	Display string
	Model   *model.Model
}

// generativeRoster maps each generative suite to its Table 1 models.
func generativeRoster(cfg Config) (map[string][]namedModel, map[string]*tasks.Suite, error) {
	loader := cfg.loader()
	roster := map[string][]struct{ disp, ckpt string }{
		"gsm8k": {
			{"Qwen2.5-S", "math-qwens"},
			{"Falcon3-S", "math-falcons"},
		},
		"wmt16": {
			{"Qwen2.5-S", "wmt-qwens"},
			{"Llama2-S", "wmt-llamas"},
			{"ALMA-S", "wmt-alma"},
		},
		"xlsum": {
			{"Llama3.1-S", "xlsum-llamas"},
			{"Qwen2.5-S", "xlsum-qwens"},
			{"Summarizer-S", "xlsum-summarizer"},
		},
		"squadv2": {
			{"Llama3.1-S", "squad-llamas"},
			{"Qwen2.5-S", "squad-qwens"},
			{"Falcon3-S", "squad-falcons"},
		},
	}
	models := map[string][]namedModel{}
	suites := map[string]*tasks.Suite{}
	for _, name := range generativeOrder {
		for _, e := range roster[name] {
			m, err := loader.Load(e.ckpt)
			if err != nil {
				return nil, nil, fmt.Errorf("roster: %s: %w", e.ckpt, err)
			}
			models[name] = append(models[name], namedModel{Display: e.disp, Model: m})
		}
		s, err := pretrained.Suite(name, cfg.Seed, cfg.Instances)
		if err != nil {
			return nil, nil, err
		}
		suites[name] = s
	}
	return models, suites, nil
}

// generativeOrder fixes the display order of the generative suites.
var generativeOrder = []string{"gsm8k", "wmt16", "xlsum", "squadv2"}

// selfRefGenSuites returns the self-referential generative suites used by
// the MoE / gate / scale studies on untrained profile models. Both names
// are pretrained.Suite's own, so neither lookup can fail.
func selfRefGenSuites(cfg Config) (translation, qa *tasks.Suite) {
	translation, _ = pretrained.Suite("wmt16-like", cfg.Seed, cfg.Instances)
	qa, _ = pretrained.Suite("squad-like", cfg.Seed, cfg.Instances)
	return translation, qa
}

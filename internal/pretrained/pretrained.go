// Package pretrained is the registry of trained model checkpoints: which
// task-skilled models exist, how each is trained (architecture, seed,
// fine-tuning lineage), and how to load them: from the set built into
// the binary (repro/pretrained, the committed checkpoints) or from a
// directory that overrides it. A checkpoint that is not there is an
// error; nothing is trained in its place. It is shared by cmd/pretrain
// (which produces the checkpoints) and the experiment harness (which
// consumes them).
//
// The roster mirrors Table 1's model column:
//
//	GSM8k          → math-qwens, math-falcons
//	WMT16 de-en    → wmt-qwens, wmt-llamas, wmt-alma (fine-tuned)
//	XLSum          → xlsum-llamas, xlsum-qwens, xlsum-summarizer (fine-tuned)
//	SQuAD v2       → squad-llamas, squad-qwens, squad-falcons
//
// plus the two math models of the denoising ablation (abl3-denoise,
// abl3-clean). It also names the evaluation suites and builds the
// untrained profile models, so cmd/llmfi and the experiments share one
// roster.
package pretrained

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/prng"
	"repro/internal/tasks"
	checkpoints "repro/pretrained"
)

// Job describes one checkpoint.
type Job struct {
	Name string
	Task string // math | math-clean | translation | summarization | qa
	Arch model.Config
	Seed uint64
	// Base names the checkpoint this one fine-tunes from ("" = trained
	// from scratch).
	Base  string
	DType numerics.DType
	// Steps and Batch are the training budget that produces the shipped
	// checkpoint. General-purpose checkpoints deliberately stop short of
	// convergence on some tasks; fine-tunes (Base != "") train Steps
	// *additional* steps from their base, reaching near-perfect task
	// performance — the general-vs-specialized contrast of Observation #4.
	Steps int
	Batch int
}

// MathOperandMax bounds the arithmetic task's operands.
const MathOperandMax = 9

var (
	taskOnce  sync.Once
	mathTask  *tasks.MathTask
	transTask *tasks.TranslationTask
	summTask  *tasks.SummTask
	qaTask    *tasks.QATask
)

func initTasks() {
	taskOnce.Do(func() {
		mathTask = tasks.NewMathTask(MathOperandMax)
		transTask = tasks.NewTranslationTask()
		summTask = tasks.NewSummTask()
		qaTask = tasks.NewQATask()
	})
}

// MathTask returns the shared arithmetic task instance.
func MathTask() *tasks.MathTask { initTasks(); return mathTask }

// TranslationTask returns the shared translation task instance.
func TranslationTask() *tasks.TranslationTask { initTasks(); return transTask }

// SummTask returns the shared summarization task instance.
func SummTask() *tasks.SummTask { initTasks(); return summTask }

// QATask returns the shared QA task instance.
func QATask() *tasks.QATask { initTasks(); return qaTask }

// cleanMathTask is MathTask with the input-corruption channel disabled:
// a model trained on it sees only pristine reasoning chains.
type cleanMathTask struct {
	*tasks.MathTask
}

// CorruptInputs overrides the noisy channel with the identity.
func (c cleanMathTask) CorruptInputs(_ *prng.Source, inputs []int, _ int) []int {
	return inputs
}

// TaskByName resolves a task name to its TrainTask.
func TaskByName(name string) tasks.TrainTask {
	initTasks()
	switch name {
	case "math":
		return mathTask
	case "math-clean":
		return cleanMathTask{mathTask}
	case "translation":
		return transTask
	case "summarization":
		return summTask
	case "qa":
		return qaTask
	default:
		panic(fmt.Sprintf("pretrained: unknown task %q", name))
	}
}

func arch(name string, d, heads, blocks, ff, maxSeq int) model.Config {
	return model.Config{
		Name: name, Vocab: 8 /* overwritten from task */, DModel: d,
		NHeads: heads, NBlocks: blocks, FFHidden: ff, MaxSeq: maxSeq,
		Eps: 1e-5, RopeTheta: 10000,
	}
}

// Jobs returns the full checkpoint roster in training order (bases before
// fine-tunes).
func Jobs() []Job {
	mathArch := arch("math", 48, 4, 2, 112, 28)
	wmtArch := arch("wmt", 40, 4, 2, 96, 26)
	xlsumArch := arch("xlsum", 40, 4, 2, 96, 32)
	squadArch := arch("squad", 32, 4, 2, 64, 26)
	bf := numerics.BF16
	return []Job{
		{Name: "math-qwens", Task: "math", Arch: mathArch, Seed: 11, DType: bf, Steps: 1100, Batch: 32},
		{Name: "math-falcons", Task: "math", Arch: mathArch, Seed: 12, DType: bf, Steps: 1100, Batch: 32},
		{Name: "wmt-qwens", Task: "translation", Arch: wmtArch, Seed: 21, DType: bf, Steps: 380, Batch: 16},
		{Name: "wmt-llamas", Task: "translation", Arch: wmtArch, Seed: 22, DType: bf, Steps: 380, Batch: 16},
		{Name: "wmt-alma", Task: "translation", Arch: wmtArch, Seed: 23, Base: "wmt-llamas", DType: bf, Steps: 700, Batch: 16},
		{Name: "xlsum-llamas", Task: "summarization", Arch: xlsumArch, Seed: 31, DType: bf, Steps: 130, Batch: 16},
		{Name: "xlsum-qwens", Task: "summarization", Arch: xlsumArch, Seed: 32, DType: bf, Steps: 130, Batch: 16},
		{Name: "xlsum-summarizer", Task: "summarization", Arch: xlsumArch, Seed: 33, Base: "xlsum-llamas", DType: bf, Steps: 400, Batch: 16},
		{Name: "squad-llamas", Task: "qa", Arch: squadArch, Seed: 41, DType: bf, Steps: 800, Batch: 32},
		{Name: "squad-qwens", Task: "qa", Arch: squadArch, Seed: 42, DType: bf, Steps: 800, Batch: 32},
		{Name: "squad-falcons", Task: "qa", Arch: squadArch, Seed: 43, DType: bf, Steps: 800, Batch: 32},
		// The denoising ablation: one initialization trained with and
		// without the input-corruption channel.
		{Name: "abl3-denoise", Task: "math", Arch: mathArch, Seed: 404, DType: bf, Steps: 900, Batch: 24},
		{Name: "abl3-clean", Task: "math-clean", Arch: mathArch, Seed: 404, DType: bf, Steps: 900, Batch: 24},
	}
}

// Suite builds the named evaluation suite with n instances drawn from
// seed: the five multiple-choice suites, the trained tasks' suites
// (gsm8k with Chain-of-Thought prompts, gsm8k-direct without), and the
// two self-referential generative suites the profile models run.
func Suite(name string, seed uint64, n int) (*tasks.Suite, error) {
	switch name {
	case "gsm8k", "gsm8k-direct":
		return MathTask().Suite(seed, n, name == "gsm8k"), nil
	case "wmt16":
		return TranslationTask().Suite(seed, n), nil
	case "xlsum":
		return SummTask().Suite(seed, n), nil
	case "squadv2":
		return QATask().Suite(seed, n), nil
	case "wmt16-like":
		return tasks.NewSelfRefSuite(name, seed, n, 8, 12,
			[]metrics.Kind{metrics.KindBLEU, metrics.KindChrF}), nil
	case "squad-like":
		return tasks.NewSelfRefSuite(name, seed, n, 14, 6,
			[]metrics.Kind{metrics.KindEM, metrics.KindF1}), nil
	}
	if s, err := tasks.NewMCSuite(name, seed, n); err == nil {
		return s, nil
	}
	return nil, fmt.Errorf("unknown suite %q", name)
}

// ProfileModel builds a named untrained profile model over the general
// vocabulary in BF16: one of the three families (QwenS, LlamaS,
// FalconS), or "moe", LlamaS with a 2-of-8 MoE MLP. Its weights are
// drawn from seed + family, so one seed gives each family its own.
func ProfileModel(name string, seed uint64) (*model.Model, error) {
	cfg := model.StandardConfig(name, tasks.GeneralVocab().Size(), numerics.BF16)
	fam := model.LlamaS
	switch name {
	case "QwenS":
		fam = model.QwenS
	case "FalconS":
		fam = model.FalconS
	case "moe":
		cfg = model.MoEConfig(cfg)
	case "LlamaS":
	default:
		return nil, fmt.Errorf("unknown profile model %q", name)
	}
	return model.Build(model.Spec{Config: cfg, Family: fam, Seed: seed + uint64(fam)})
}

// JobByName looks up one job.
func JobByName(name string) (Job, error) {
	for _, j := range Jobs() {
		if j.Name == name {
			return j, nil
		}
	}
	return Job{}, fmt.Errorf("pretrained: unknown checkpoint %q", name)
}

// Loader loads checkpoints, caching them: from the set built into the
// binary, or from a directory that overrides it (fresh cmd/pretrain
// output). Both are read the one way, NAME.gob through model.Load.
type Loader struct {
	dir  string // "" for the built-in set
	fsys fs.FS

	mu    sync.Mutex
	cache map[string]*model.Model
}

// NewLoader returns a Loader over dir, or over the checkpoints built into
// the binary when dir is "".
func NewLoader(dir string) *Loader {
	var fsys fs.FS = checkpoints.FS
	if dir != "" {
		fsys = os.DirFS(dir)
	}
	return &Loader{dir: dir, fsys: fsys, cache: map[string]*model.Model{}}
}

// Load returns the named checkpoint of the roster. One missing is an
// error wrapping fs.ErrNotExist that names its path.
func (l *Loader) Load(name string) (*model.Model, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.cache[name]; ok {
		return m, nil
	}
	if _, err := JobByName(name); err != nil {
		return nil, err
	}
	path := filepath.Join(l.dir, name+".gob")
	f, err := l.fsys.Open(name + ".gob")
	if err != nil {
		return nil, fmt.Errorf("pretrained: %s: %w", path, err)
	}
	defer f.Close()
	m, err := model.Load(f)
	if err != nil {
		return nil, fmt.Errorf("pretrained: %s: %w", path, err)
	}
	l.cache[name] = m
	return m, nil
}

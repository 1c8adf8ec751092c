// Command pretrain produces the task-skilled model checkpoints used by
// the fault-injection experiments. It trains every generative-task model
// of Table 1's surrogate roster (math for QwenS/FalconS, translation for
// QwenS/LlamaS plus the ALMA-style fine-tune, summarization for
// LlamaS/QwenS plus the Summarizer-style fine-tune, and QA for all three
// families), plus the denoising ablation's two math models (abl3-denoise,
// abl3-clean), and writes them as .gob files under -out.
//
// "General-purpose" checkpoints train for their registry step budget;
// "fine-tuned" checkpoints continue from their base for additional
// steps, yielding the sharper, more specialized models whose extra
// resilience Observation #4 reports.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/pretrained"
	"repro/internal/train"
)

var (
	stepsFlag = flag.Int("steps", 0, "override training steps (0 = per-job default)")
	batchFlag = flag.Int("batch", 0, "override batch size (0 = per-job default)")
	lrFlag    = flag.Float64("lr", 0, "override learning rate (0 = default)")
	decayFlag = flag.Float64("decay", -1, "override weight decay (<0 = default)")
)

func main() {
	log.SetFlags(0)
	out := flag.String("out", "pretrained", "output directory for checkpoints")
	only := flag.String("only", "", "train only the checkpoint with this name")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	for _, job := range pretrained.Jobs() {
		if *only != "" && job.Name != *only {
			continue
		}
		start := time.Now()
		log.Printf("=== %s (task %s, seed %d%s) ===", job.Name, job.Task, job.Seed, ftSuffix(job))
		tr, err := trainJob(job)
		if err != nil {
			log.Fatalf("%s: %v", job.Name, err)
		}
		m := tr.Export(job.Name, job.DType)
		path := filepath.Join(*out, job.Name+".gob")
		if err := m.SaveFile(path); err != nil {
			log.Fatalf("%s: save: %v", job.Name, err)
		}
		task := pretrained.TaskByName(job.Task)
		acc := tr.EvalExactMatch(task, 0xe7a1, 64)
		fmt.Printf("saved %-32s exact-match %.3f  params %d  (%.1fs)\n",
			path, acc, tr.NumParams(), time.Since(start).Seconds())
	}
}

func ftSuffix(job pretrained.Job) string {
	if job.Base != "" {
		return ", fine-tuned from " + job.Base
	}
	return ""
}

// trained caches base models within one invocation so fine-tunes don't
// retrain their base.
var trained = map[string]*train.Trainable{}

func jobConfig(job pretrained.Job) train.Config {
	cfg := train.DefaultConfig(job.Seed)
	cfg.Steps = job.Steps
	cfg.Batch = job.Batch
	cfg.Logf = log.Printf
	if *stepsFlag > 0 {
		cfg.Steps = *stepsFlag
	}
	if *batchFlag > 0 {
		cfg.Batch = *batchFlag
	}
	if *lrFlag > 0 {
		cfg.Opt.LR = *lrFlag
	}
	if *decayFlag >= 0 {
		cfg.Opt.WeightDecay = *decayFlag
	}
	return cfg
}

func trainJob(job pretrained.Job) (*train.Trainable, error) {
	if tr, ok := trained[job.Name]; ok {
		return tr, nil
	}
	task := pretrained.TaskByName(job.Task)
	cfg := jobConfig(job)

	if job.Base == "" {
		tr, err := train.Run(task, job.Arch, cfg)
		if err != nil {
			return nil, err
		}
		trained[job.Name] = tr
		return tr, nil
	}

	baseJob, err := pretrained.JobByName(job.Base)
	if err != nil {
		return nil, err
	}
	base, err := trainJob(baseJob)
	if err != nil {
		return nil, err
	}
	// Fine-tune a copy so the base checkpoint is unaffected.
	ft := base.CloneWeights()
	if err := train.Continue(ft, task, cfg); err != nil {
		return nil, err
	}
	trained[job.Name] = ft
	return ft, nil
}

package pretrained

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	// One seed may serve two tasks (the denoising ablation trains one
	// initialization with and without input corruption); two jobs on one
	// task with one seed would be the same model.
	type taskSeed struct {
		task string
		seed uint64
	}
	seeds := map[taskSeed]bool{}
	for _, j := range Jobs() {
		if seen[j.Name] {
			t.Fatalf("duplicate job %s", j.Name)
		}
		seen[j.Name] = true
		if seeds[taskSeed{j.Task, j.Seed}] {
			t.Fatalf("duplicate seed %d for task %s", j.Seed, j.Task)
		}
		seeds[taskSeed{j.Task, j.Seed}] = true
		if j.Steps <= 0 || j.Batch <= 0 {
			t.Fatalf("%s: missing training budget", j.Name)
		}
		task := TaskByName(j.Task) // panics on unknown task
		arch := j.Arch
		arch.Vocab = task.Vocab().Size()
		if err := arch.Validate(); err != nil {
			t.Fatalf("%s: invalid arch: %v", j.Name, err)
		}
		if arch.MaxSeq < task.MaxLen() {
			t.Fatalf("%s: MaxSeq %d < task MaxLen %d", j.Name, arch.MaxSeq, task.MaxLen())
		}
		if j.Base != "" {
			if _, err := JobByName(j.Base); err != nil {
				t.Fatalf("%s: missing base %s", j.Name, j.Base)
			}
			base, _ := JobByName(j.Base)
			if base.Task != j.Task {
				t.Fatalf("%s: fine-tune task differs from base", j.Name)
			}
		}
	}
	if _, err := JobByName("nope"); err == nil {
		t.Fatal("unknown job should error")
	}
}

func TestTasksAreSingletons(t *testing.T) {
	if MathTask() != MathTask() || TranslationTask() != TranslationTask() {
		t.Fatal("task accessors should return shared instances")
	}
}

func TestLoaderReadsCheckpoints(t *testing.T) {
	dir := DefaultDir()
	if _, err := os.Stat(filepath.Join(dir, "math-qwens.gob")); err != nil {
		t.Skipf("checkpoints not present at %s; run cmd/pretrain", dir)
	}
	l := NewLoader(dir)
	m, err := l.Load("math-qwens")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Vocab != MathTask().Vocab().Size() {
		t.Fatalf("loaded vocab %d != task vocab %d", m.Cfg.Vocab, MathTask().Vocab().Size())
	}
	// Cached: second load returns the same instance.
	m2, _ := l.Load("math-qwens")
	if m != m2 {
		t.Fatal("loader should cache")
	}
}

func TestDefaultDirFindsModuleRoot(t *testing.T) {
	dir := DefaultDir()
	if filepath.Base(dir) != "pretrained" {
		t.Fatalf("DefaultDir = %s", dir)
	}
	// Must resolve relative to go.mod, not the package directory.
	if filepath.Base(filepath.Dir(dir)) == "internal" {
		t.Fatalf("DefaultDir resolved inside internal/: %s", dir)
	}
}

func TestLoaderFallbackTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("fallback training is slow")
	}
	l := NewLoader(t.TempDir()) // empty dir: forces fallback
	l.FallbackSteps = 30
	m, err := l.Load("squad-qwens")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Name != "squad-qwens" {
		t.Fatal("fallback model misnamed")
	}
}

func TestLoaderNoFallbackErrors(t *testing.T) {
	l := NewLoader(t.TempDir())
	l.Fallback = false
	if _, err := l.Load("math-qwens"); err == nil {
		t.Fatal("expected missing-checkpoint error")
	}
}

package pretrained

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
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

// TestLoaderReadsCheckpoints: the built-in set is read wherever the
// process starts, and gives the committed file's parameters bit for bit.
func TestLoaderReadsCheckpoints(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "pretrained", "math-qwens.gob"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	committed, err := model.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	l := NewLoader("")
	m, err := l.Load("math-qwens")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Vocab != MathTask().Vocab().Size() {
		t.Fatalf("loaded vocab %d != task vocab %d", m.Cfg.Vocab, MathTask().Vocab().Size())
	}
	if m.ParamHash() != committed.ParamHash() {
		t.Fatal("the built-in math-qwens differs from pretrained/math-qwens.gob")
	}
	// Cached: second load returns the same instance.
	m2, _ := l.Load("math-qwens")
	if m != m2 {
		t.Fatal("loader should cache")
	}
}

// TestLoaderNoFallbackErrors: a checkpoint missing from an override
// directory is an error naming its path, never a model trained instead.
func TestLoaderNoFallbackErrors(t *testing.T) {
	dir := t.TempDir()
	_, err := NewLoader(dir).Load("math-qwens")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
	if want := filepath.Join(dir, "math-qwens.gob"); !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %s", err, want)
	}
}

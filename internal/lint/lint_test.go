package lint

import (
	"strings"
	"testing"
)

func TestHasPathSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"repro/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"repro/internal/corex", "internal/core", false},
		{"repro/xinternal/core", "internal/core", false},
		{"repro/internal/core/sub", "internal/core", false},
		{"core", "internal/core", false},
	}
	for _, c := range cases {
		if got := hasPathSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("hasPathSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("expected 8 analyzers, got %d", len(all))
	}
	sub, err := ByName([]string{"checksumwidth", "determinism"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "checksumwidth" || sub[1].Name != "determinism" {
		t.Fatalf("unexpected subset: %+v", sub)
	}
	_, err = ByName([]string{"nope"})
	if err == nil {
		t.Fatal("expected error for unknown analyzer")
	}
	// The error names the valid analyzers so a typo never silently runs
	// nothing.
	for _, name := range []string{"determinism", "guardedby", "atomicmix", "golife", "wireschema"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-analyzer error %q does not list %q", err, name)
		}
	}
}

func TestAnalyzerScopes(t *testing.T) {
	pkgIn := &Package{Path: "repro/internal/core", scoped: map[string]bool{}}
	pkgOut := &Package{Path: "repro/internal/report", scoped: map[string]bool{}}
	pkgOpted := &Package{Path: "anything", scoped: map[string]bool{"determinism": true}}
	a := AnalyzerDeterminism
	if !a.inScope(pkgIn) {
		t.Error("internal/core should be in determinism scope")
	}
	if a.inScope(pkgOut) {
		t.Error("internal/report should be outside determinism scope")
	}
	if !a.inScope(pkgOpted) {
		t.Error("//llmfi:scope should opt a package in")
	}
	if !AnalyzerHookPurity.inScope(pkgOut) {
		t.Error("nil scope should apply everywhere")
	}
}

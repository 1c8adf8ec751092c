// Package lint is a standard-library-only static analysis framework
// (go/parser + go/types, no golang.org/x/tools) that machine-checks the
// repository's campaign invariants: deterministic execution, observational
// hook purity, float64 checksum math,
// context-first cancellation, lock discipline (//llmfi:guardedby), atomic
// access consistency, goroutine lifecycle, and wire-schema hygiene. The
// cmd/llmfi-vet driver runs every analyzer
// over the module and exits non-zero on findings, so the invariants that
// make checkpoint/resume bit-identical (§3.3.4 seed fixing) and tracing
// observational are enforced at review time rather than discovered by
// golden-test failures after a campaign is corrupted.
//
// Findings are suppressed line-by-line with
//
//	//llmfi:allow <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory: an allow without one is itself a finding. A package
// outside an analyzer's default scope opts in with a file-level
// //llmfi:scope <analyzer> comment (the corpus tests use this).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding, positioned to the file:line:col the analyzer
// anchored it at.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant check. Run inspects a type-checked package
// through the Pass and reports findings.
type Analyzer struct {
	// Name is the identifier used on the command line and in
	// //llmfi:allow annotations.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Scope lists import-path suffixes the analyzer applies to by
	// default (nil = every package). Packages outside the scope are
	// analyzed only when a file carries //llmfi:scope <name>.
	Scope []string
	// Run performs the analysis.
	Run func(*Pass)
}

// inScope reports whether the analyzer applies to pkg.
func (a *Analyzer) inScope(pkg *Package) bool {
	if pkg.scoped[a.Name] {
		return true
	}
	if a.Scope == nil {
		return true
	}
	for _, s := range a.Scope {
		if pkg.Path == s || hasPathSuffix(pkg.Path, s) {
			return true
		}
	}
	return false
}

// hasPathSuffix reports whether path ends in the slash-separated suffix.
func hasPathSuffix(path, suffix string) bool {
	if len(path) == len(suffix) {
		return path == suffix
	}
	return len(path) > len(suffix) &&
		path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// Pass hands one package to one analyzer.
type Pass struct {
	*Package
	// Facts is the cross-package access-fact index shared by the
	// concurrency analyzers (guardedby, atomicmix). It is computed once
	// per Run over every loaded package, so an analyzer can relate a
	// field's accesses in this package to annotations or atomic
	// operations recorded in another.
	Facts    *Facts
	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), format, args...)
}

// reportAt records a finding at an already-resolved position (the
// access-fact pass stores token.Position, not token.Pos).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      pos,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of running analyzers over packages.
type Result struct {
	// Findings are the surviving diagnostics, sorted by position.
	Findings []Diagnostic
	// Suppressed are findings silenced by a well-formed //llmfi:allow.
	Suppressed []Diagnostic
}

// Run applies every analyzer to every package (honoring scopes), then
// filters the raw findings through the //llmfi:allow annotations.
// Malformed annotations (missing reason, unknown analyzer) surface as
// findings of the pseudo-analyzer "allow".
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	// Allow names are validated against the full suite, not just the
	// analyzers selected for this run: a -run subset must not turn every
	// other analyzer's legitimate allows into "unknown analyzer" noise.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var res Result
	var raw []Diagnostic
	facts := CollectFacts(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.inScope(pkg) {
				continue
			}
			pass := &Pass{Package: pkg, Facts: facts, analyzer: a, sink: &raw}
			a.Run(pass)
		}
		res.Findings = append(res.Findings, pkg.allowProblems(known)...)
	}
	for _, d := range raw {
		pkg := pkgByFile(pkgs, d.Pos.Filename)
		if pkg != nil && pkg.allowed(d) {
			res.Suppressed = append(res.Suppressed, d)
			continue
		}
		res.Findings = append(res.Findings, d)
	}
	sortDiagnostics(res.Findings)
	sortDiagnostics(res.Suppressed)
	return res
}

// Audit returns every well-formed //llmfi:allow across pkgs in
// diagnostic order, plus findings for malformed or unknown-analyzer
// annotations (validated against the given suite). It is the engine of
// `llmfi-vet -suppressions`: the audited suppression budget in one list.
func Audit(pkgs []*Package, analyzers []*Analyzer) (allows []Allow, problems []Diagnostic) {
	// Same rationale as Run: validate against the full suite so a -run
	// subset does not misreport other analyzers' allows as unknown.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		allows = append(allows, pkg.Allows()...)
		problems = append(problems, pkg.allowProblems(known)...)
	}
	sort.Slice(allows, func(i, j int) bool {
		a, b := allows[i].Pos, allows[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	sortDiagnostics(problems)
	return allows, problems
}

// pkgByFile finds the package owning filename.
func pkgByFile(pkgs []*Package, filename string) *Package {
	for _, pkg := range pkgs {
		if pkg.fileSet[filename] {
			return pkg
		}
	}
	return nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// forEachFunc walks every function body in the package, calling fn with
// the declaration (nil for function literals reached outside any decl —
// impossible in practice, but kept total) and the body.
func forEachFunc(pkg *Package, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd, fd.Body)
			}
		}
	}
}

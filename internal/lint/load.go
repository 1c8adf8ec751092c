package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package plus the annotation index
// the suppression layer needs.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the package directory on disk.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// fileSet indexes the package's file names for diagnostic routing.
	fileSet map[string]bool
	// allows indexes well-formed //llmfi:allow annotations by file:line,
	// mapping to the audited reason text.
	allows map[allowKey]string
	// allowList is every well-formed allow in source order, for the
	// -suppressions audit listing.
	allowList []Allow
	// badAllows are malformed or unknown-analyzer annotations.
	badAllows []badAllow
	// scoped marks analyzers opted in via //llmfi:scope.
	scoped map[string]bool
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

type badAllow struct {
	pos      token.Position
	analyzer string
	problem  string
}

// Allow is one well-formed //llmfi:allow annotation: the audited
// suppression budget is the list of these across the module.
type Allow struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// Allows returns the package's well-formed allow annotations in source
// order.
func (p *Package) Allows() []Allow { return p.allowList }

// allowed reports whether d is silenced by an annotation on its line or
// the line directly above.
func (p *Package) allowed(d Diagnostic) bool {
	if _, ok := p.allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
		return true
	}
	_, ok := p.allows[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
	return ok
}

// allowProblems renders the package's malformed annotations as findings
// of the pseudo-analyzer "allow". known filters analyzer-name typos.
func (p *Package) allowProblems(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, b := range p.badAllows {
		msg := b.problem
		if msg == "" && !known[b.analyzer] {
			msg = fmt.Sprintf("unknown analyzer %q in //llmfi:allow", b.analyzer)
		}
		if msg == "" {
			continue
		}
		out = append(out, Diagnostic{Pos: b.pos, Analyzer: "allow", Message: msg})
	}
	return out
}

// indexComments scans f for //llmfi:allow and //llmfi:scope annotations.
func (p *Package) indexComments(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "llmfi:") {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			switch {
			case strings.HasPrefix(text, "llmfi:allow"):
				fields := strings.Fields(strings.TrimPrefix(text, "llmfi:allow"))
				switch {
				case len(fields) == 0:
					p.badAllows = append(p.badAllows, badAllow{pos: pos,
						problem: "//llmfi:allow needs an analyzer name and a reason"})
				case len(fields) == 1:
					p.badAllows = append(p.badAllows, badAllow{pos: pos, analyzer: fields[0],
						problem: fmt.Sprintf("//llmfi:allow %s needs a reason", fields[0])})
				default:
					reason := strings.Join(fields[1:], " ")
					p.allows[allowKey{pos.Filename, pos.Line, fields[0]}] = reason
					p.allowList = append(p.allowList, Allow{Pos: pos, Analyzer: fields[0], Reason: reason})
					// Still validate the analyzer name (typos would
					// otherwise silently suppress nothing).
					p.badAllows = append(p.badAllows, badAllow{pos: pos, analyzer: fields[0]})
				}
			case strings.HasPrefix(text, "llmfi:scope"):
				for _, name := range strings.Fields(strings.TrimPrefix(text, "llmfi:scope")) {
					p.scoped[name] = true
				}
			}
		}
	}
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` in dir over patterns and
// returns the decoded packages.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a go/types importer resolving import paths
// through compiler export data files (as reported by `go list -export`).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Load parses and type-checks the non-test Go files of every package
// matching patterns, resolving imports from compiler export data. dir is
// the directory `go list` runs in (the module root, normally).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listPkg
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// loadDir parses and type-checks the single ad-hoc package in dir (the
// corpus-test entry point: testdata packages are invisible to `go list`
// pattern expansion, so their stdlib imports are resolved by an extra
// `go list` over exactly the imported paths). modRoot is where the go
// command runs.
func loadDir(modRoot, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	// Pre-parse to discover imports, then fetch export data for them.
	fset := token.NewFileSet()
	var asts []*ast.File
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	paths := map[string]bool{}
	for _, f := range asts {
		for _, imp := range f.Imports {
			paths[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		var pats []string
		for p := range paths {
			pats = append(pats, p)
		}
		sort.Strings(pats)
		listed, err := goList(modRoot, pats)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return check(fset, exportImporter(fset, exports), filepath.Base(dir), dir, files)
}

// check parses files and type-checks them into a Package.
func check(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	pkg := &Package{
		Path: path, Dir: dir, Fset: fset,
		fileSet: map[string]bool{},
		allows:  map[allowKey]string{},
		scoped:  map[string]bool{},
	}
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.fileSet[fn] = true
		pkg.indexComments(f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, _ := conf.Check(path, fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v (and %d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	pkg.Types = tpkg
	return pkg, nil
}

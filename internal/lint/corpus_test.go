package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// corpusCases maps each testdata corpus to the analyzer it exercises.
// Every corpus demonstrates at least one caught violation (a `want`
// expectation) and, unless noted, at least one honored suppression.
var corpusCases = []struct {
	dir            string
	analyzer       string
	wantSuppressed bool
}{
	{"determinism", "determinism", true},
	{"hookpurity", "hookpurity", true},
	{"hookpurity_serve", "hookpurity", false},
	{"hookpurity_obs", "hookpurity", false},
	{"checksumwidth", "checksumwidth", true},
	{"checksumwidth_abft", "checksumwidth", false},
	{"ctxflow", "ctxflow", true},
	{"guardedby", "guardedby", true},
	{"atomicmix", "atomicmix", true},
	{"golife", "golife", true},
	{"wireschema", "wireschema", true},
}

// wantPattern is one expectation: a finding on file:line whose message
// matches re.
type wantPattern struct {
	re   *regexp.Regexp
	used bool
}

type lineKey struct {
	file string
	line int
}

var wantRE = regexp.MustCompile("`([^`]*)`")

// collectWants parses the corpus's `// want ...` and /* want ... */
// comments into per-line expectations. Patterns are backtick-quoted
// regexps; a line may carry several.
func collectWants(t *testing.T, pkg *Package) map[lineKey][]*wantPattern {
	t.Helper()
	wants := map[lineKey][]*wantPattern{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if strings.HasPrefix(text, "//") {
					text = strings.TrimPrefix(text, "//")
				} else {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[k] = append(wants[k], &wantPattern{re: re})
				}
			}
		}
	}
	return wants
}

func TestCorpus(t *testing.T) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corpusCases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := loadDir(modRoot, filepath.Join("testdata", tc.dir))
			if err != nil {
				t.Fatalf("loading corpus: %v", err)
			}
			analyzers, err := ByName([]string{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			res := Run([]*Package{pkg}, analyzers)

			wants := collectWants(t, pkg)
			if len(wants) == 0 {
				t.Fatalf("corpus %s has no want expectations", tc.dir)
			}
		findings:
			for _, d := range res.Findings {
				for _, w := range wants[lineKey{d.Pos.Filename, d.Pos.Line}] {
					if !w.used && w.re.MatchString(d.Message) {
						w.used = true
						continue findings
					}
				}
				t.Errorf("unexpected finding: %s", d)
			}
			for k, ws := range wants {
				for _, w := range ws {
					if !w.used {
						t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, w.re)
					}
				}
			}

			if tc.wantSuppressed && len(res.Suppressed) == 0 {
				t.Errorf("corpus %s: expected at least one honored //llmfi:allow suppression", tc.dir)
			}
			for _, d := range res.Suppressed {
				for _, f := range res.Findings {
					if f.Pos == d.Pos && f.Message == d.Message {
						t.Errorf("diagnostic both suppressed and reported: %s", d)
					}
				}
			}
		})
	}
}

package serve

import (
	"testing"

	"repro/internal/model"
	"repro/internal/numerics"
)

func cacheTestModel() *model.Model {
	return model.MustBuild(model.Spec{Family: model.QwenS, Seed: 2, Config: model.Config{
		Name: "cache-test", Vocab: 32, DModel: 8, NHeads: 2, NBlocks: 2, FFHidden: 12,
		MaxSeq: 16, Eps: 1e-5, DType: numerics.BF16, RopeTheta: 10000,
	}})
}

func prefixOf(m *model.Model, prompt []int) *model.Prefix {
	st := m.NewState()
	st.Prefill(prompt)
	return st.Snapshot()
}

// TestPrefixCacheAdmission: a prompt is admitted at its third sighting
// inside the window and not before, a prompt an entry already covers is
// not admitted again, and lookup hands out the entry with the longest
// common prefix, capped one short of the prompt.
func TestPrefixCacheAdmission(t *testing.T) {
	m := cacheTestModel()
	c := newPrefixCache(m, 2, false, NewMetrics())
	held := func() int { return int(c.met.Snapshot().PrefixCacheBytes) }
	a := []int{1, 2, 3, 4, 5, 6}
	for sighting := 1; sighting <= 3; sighting++ {
		hit, reuse, admit := c.lookup(a)
		if hit.prefix != nil || reuse != 0 || admit != (sighting == 3) {
			t.Fatalf("sighting %d of an uncached prompt: prefix %v reuse %d admit %v", sighting, hit.prefix, reuse, admit)
		}
	}
	pa := prefixOf(m, a)
	if c.insert(prefixEntry{prompt: a, prefix: pa}); held() != pa.Bytes() {
		t.Fatalf("first insert: %d bytes held, want %d", held(), pa.Bytes())
	}
	if c.insert(prefixEntry{prompt: a, prefix: prefixOf(m, a)}); held() != pa.Bytes() {
		t.Fatalf("a second insert of the same prompt grew the cache to %d bytes", held())
	}
	if hit, reuse, admit := c.lookup(a); hit.prefix != pa || reuse != len(a)-1 || admit {
		t.Fatalf("exact repeat: prefix %p (want %p) reuse %d admit %v", hit.prefix, pa, reuse, admit)
	}
	short := a[:3]
	c.lookup(short)
	c.lookup(short)
	if hit, reuse, admit := c.lookup(short); hit.prefix != pa || reuse != 2 || admit {
		t.Fatalf("a prompt inside a cached one: reuse %d admit %v; it needs no entry of its own", reuse, admit)
	}
	longer := []int{1, 2, 3, 4, 9, 9, 9}
	c.lookup(longer)
	c.lookup(longer)
	hit, reuse, admit := c.lookup(longer)
	if hit.prefix != pa || reuse != 4 || !admit {
		t.Fatalf("a prompt diverging from a cached one: reuse %d admit %v", reuse, admit)
	}
	pl := prefixOf(m, longer)
	c.insert(prefixEntry{prompt: longer, prefix: pl})
	if hit, reuse, _ := c.lookup([]int{1, 2, 3, 4, 9, 9, 7}); hit.prefix != pl || reuse != 6 {
		t.Fatalf("lookup must pick the longest common prefix: reuse %d", reuse)
	}

	// Sightings age out of the window.
	old := []int{7, 7, 7}
	c.lookup(old)
	c.lookup(old)
	for i := 0; i < sightingWindow; i++ {
		c.lookup([]int{20, i % 30, i / 30})
	}
	if _, _, admit := c.lookup(old); admit {
		t.Fatal("two sightings more than a window ago still counted")
	}
}

// TestPrefixCacheLRU fills the cache to its byte budget and keeps
// inserting: the bytes held never exceed the budget, the entry evicted is
// the one least recently handed out, and a prefix larger than the whole
// budget is dropped.
func TestPrefixCacheLRU(t *testing.T) {
	m := cacheTestModel()
	c := newPrefixCache(m, 1, false, NewMetrics()) // 3 × 1 × 16 positions
	state := func() (evicted, bytes int) {
		s := c.met.Snapshot()
		return int(s.PrefixCacheEvictions), int(s.PrefixCacheBytes)
	}
	rowBytes := 2 * m.Cfg.NBlocks * m.Cfg.DModel * 4
	if c.budget != 48*rowBytes {
		t.Fatalf("budget %d bytes, want 3 × width × MaxSeq = 48 rows of %d", c.budget, rowBytes)
	}
	// Entries with depth planes: each position counts its planes' rows
	// and token too.
	planeBytes := (2*m.Cfg.NBlocks-1)*m.Cfg.DModel*4 + 8
	if got := newPrefixCache(m, 1, true, NewMetrics()).budget; got != 48*(rowBytes+planeBytes) {
		t.Fatalf("budget with depth planes %d bytes, want 48 positions of %d", got, rowBytes+planeBytes)
	}
	prompt := func(i int) []int {
		p := make([]int, 12)
		for j := range p {
			p[j] = (i + 1 + j) % 32
		}
		p[0] = i + 1
		return p
	}
	for i := 0; i < 4; i++ { // four 12-row prompts fill 48 rows exactly
		c.insert(prefixEntry{prompt: prompt(i), prefix: prefixOf(m, prompt(i))})
		if evicted, bytes := state(); evicted != 0 || bytes != (i+1)*12*rowBytes {
			t.Fatalf("insert %d: evicted %d, holding %d bytes", i, evicted, bytes)
		}
	}
	// Touch all but prompt 1: it is now the least recently used.
	for _, i := range []int{0, 2, 3} {
		if hit, _, _ := c.lookup(prompt(i)); hit.prefix == nil {
			t.Fatalf("prompt %d not cached", i)
		}
	}
	c.insert(prefixEntry{prompt: prompt(4), prefix: prefixOf(m, prompt(4))})
	if evicted, bytes := state(); evicted != 1 || bytes != c.budget {
		t.Fatalf("insert at the budget: evicted %d, holding %d of %d bytes", evicted, bytes, c.budget)
	}
	if hit, reuse, _ := c.lookup(prompt(1)); hit.prefix != nil && reuse > 0 {
		t.Fatalf("the least recently used prompt survived eviction (reuse %d)", reuse)
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, reuse, _ := c.lookup(prompt(i)); reuse != 11 {
			t.Fatalf("prompt %d was evicted instead of the least recently used", i)
		}
	}
	small := &prefixCache{budget: 11 * rowBytes, met: NewMetrics()}
	small.insert(prefixEntry{prompt: prompt(0), prefix: prefixOf(m, prompt(0))})
	if hit, _, _ := small.lookup(prompt(0)); hit.prefix != nil {
		t.Fatal("a prefix over the whole budget was cached")
	}
}

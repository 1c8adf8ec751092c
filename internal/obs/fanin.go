package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/prom"
)

// scrapeState is one registered worker's latest scrape. Samples are
// retained across scrape failures so a churned worker's last-known
// series stay visible (marked down via llmfi_fleet_worker_up 0) instead
// of vanishing from the aggregate.
type scrapeState struct {
	addr    string
	up      bool
	scrapes uint64
	errors  uint64
	samples []prom.Sample
}

// FanIn scrapes registered workers' /metrics endpoints and re-exports
// the union as aggregated llmfi_fleet_* series: per family, a sum and
// max across workers plus the per-worker breakdown.
type FanIn struct {
	client *http.Client

	mu      sync.Mutex
	workers map[string]*scrapeState //llmfi:guardedby mu
}

// NewFanIn builds a FanIn scraping via client (nil for a 5s-timeout
// default).
func NewFanIn(client *http.Client) *FanIn {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return &FanIn{client: client, workers: make(map[string]*scrapeState)}
}

// Register adds (or re-addresses) a worker's metrics endpoint. addr is
// a full URL base, e.g. "http://127.0.0.1:9431"; the fan-in appends
// /metrics. Registering an empty addr is a no-op: workers without
// -http simply don't participate.
func (f *FanIn) Register(worker, addr string) {
	if worker == "" || addr == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.workers[worker]
	if st == nil {
		st = &scrapeState{}
		f.workers[worker] = st
	}
	st.addr = addr
}

// Workers returns the registered worker names, sorted.
func (f *FanIn) Workers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.workers))
	for w := range f.workers {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}

// ScrapeOnce scrapes every registered worker once, sequentially in
// sorted-name order. Failures mark the worker down and retain its last
// samples.
func (f *FanIn) ScrapeOnce(ctx context.Context) {
	for _, name := range f.Workers() {
		f.mu.Lock()
		st := f.workers[name]
		addr := ""
		if st != nil {
			addr = st.addr
		}
		f.mu.Unlock()
		if addr == "" {
			continue
		}
		samples, err := f.scrape(ctx, addr)
		f.mu.Lock()
		if st := f.workers[name]; st != nil {
			st.scrapes++
			if err != nil {
				st.errors++
				st.up = false
			} else {
				st.up = true
				st.samples = samples
			}
		}
		f.mu.Unlock()
	}
}

func (f *FanIn) scrape(ctx context.Context, addr string) ([]prom.Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	return prom.Parse(io.LimitReader(resp.Body, 4<<20))
}

// Run scrapes on the given interval until ctx is done. Intended as a
// coordinator-side goroutine.
func (f *FanIn) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	f.ScrapeOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.ScrapeOnce(ctx)
		}
	}
}

// WriteText renders the fan-in state as Prometheus text: per-worker
// liveness/scrape counters, then for every scraped llmfi_* family the
// fleet aggregate (sum and max across workers) and the per-worker
// series, deterministically ordered.
func (f *FanIn) WriteText(out io.Writer) error {
	f.mu.Lock()
	type workerSnap struct {
		name string
		st   scrapeState
	}
	snaps := make([]workerSnap, 0, len(f.workers))
	for name, st := range f.workers {
		snaps = append(snaps, workerSnap{name: name, st: *st})
	}
	f.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })

	w := prom.NewWriter(out)
	worker := func(name string) prom.Label { return prom.Label{Key: "worker", Val: name} }
	for _, s := range snaps {
		up := 0.0
		if s.st.up {
			up = 1
		}
		w.Gauge("llmfi_fleet_worker_up", "Whether the last scrape of this worker's /metrics succeeded.", up, worker(s.name))
	}
	for _, s := range snaps {
		w.Counter("llmfi_fleet_worker_scrapes_total", "Scrape attempts against this worker.", int64(s.st.scrapes), worker(s.name))
	}
	for _, s := range snaps {
		w.Counter("llmfi_fleet_worker_scrape_errors_total", "Failed scrapes against this worker.", int64(s.st.errors), worker(s.name))
	}

	// Group samples: family (its name past llmfi_) -> one cell per
	// (worker, labelset). A cell's key is its labelset sorted and
	// rendered, so the same series groups across workers whatever order
	// they listed their labels in.
	type cell struct {
		worker string
		key    string
		labels []prom.Label
		value  float64
	}
	families := make(map[string][]cell)
	for _, s := range snaps {
		for _, smp := range s.st.samples {
			// Only llmfi_* series, and (the fleet-of-fleets guard) none that
			// are themselves fan-in output.
			base, ok := strings.CutPrefix(smp.Name, "llmfi_")
			if !ok || strings.HasPrefix(base, "fleet_") {
				continue
			}
			labels := append([]prom.Label(nil), smp.Labels...)
			sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
			families[base] = append(families[base], cell{
				worker: s.name,
				key:    prom.FormatLabels(labels),
				labels: labels,
				value:  smp.Value,
			})
		}
	}
	bases := make([]string, 0, len(families))
	for base := range families {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		cells, fam := families[base], "llmfi_fleet_"+base
		w.Family(fam, "untyped", "Fleet aggregate of the workers' llmfi_"+base+".")
		sort.SliceStable(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
		// Cells of one labelset are now adjacent, workers in name order.
		for i := 0; i < len(cells); {
			sum, max, j := 0.0, cells[i].value, i
			for ; j < len(cells) && cells[j].key == cells[i].key; j++ {
				sum += cells[j].value
				if cells[j].value > max {
					max = cells[j].value
				}
			}
			w.Sample(fam, sum, withLabel("agg", "sum", cells[i].labels)...)
			w.Sample(fam, max, withLabel("agg", "max", cells[i].labels)...)
			i = j
		}
		sort.SliceStable(cells, func(i, j int) bool { return cells[i].worker < cells[j].worker })
		for _, c := range cells {
			w.Sample(fam, c.value, withLabel("worker", c.worker, c.labels)...)
		}
	}
	return w.Flush()
}

// withLabel returns rest with one label in front.
func withLabel(key, val string, rest []prom.Label) []prom.Label {
	return append([]prom.Label{{Key: key, Val: val}}, rest...)
}

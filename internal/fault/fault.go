// Package fault is the seeded, deterministic fault-injection layer behind
// the chaos campaigns (DESIGN.md §11). A Plan owns one independent
// seeded RNG per injection site and decides, passage by passage, whether
// the site fires — so a campaign with the same seed injects exactly the
// same fault sequence at every site, and a rerun's report is
// byte-identical. Every schedule is bounded (LeapsAndBounds-style runtime
// caps: per-site Max injection counts, fixed per-fire delays), so a chaos
// campaign can never wedge the suite.
//
// Injection is strictly opt-in and zero-overhead when absent: every wrapper
// (fault.Store, fault.Transport, the serve panic sites) holds a *Plan that
// is normally nil, and a nil Plan never fires — the disabled check is one
// pointer comparison, enforced allocation-free by the cwlint hot-path
// rules.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Site names one injection point. The constants below are the sites the
// built-in wrappers consult; a Plan may carry rules for any subset.
type Site string

// Injection sites.
const (
	// StoreSaveFail makes fault.Store.Save return an operational error
	// without writing anything (a full disk, a permission flip).
	StoreSaveFail Site = "store.save.fail"
	// StoreSaveTorn makes fault.Store.Save report success but leave a
	// torn (truncated mid-write) entry on disk — the crash-consistency
	// case atomic rename normally rules out, forced for testing reload.
	StoreSaveTorn Site = "store.save.torn"
	// StoreLoadErr makes fault.Store.Load return an operational error.
	StoreLoadErr Site = "store.load.err"
	// StoreLoadSlow delays fault.Store.Load by the rule's Delay.
	StoreLoadSlow Site = "store.load.slow"
	// TransportReset makes fault.Transport fail the round trip with a
	// connection-reset error before the request reaches the server.
	TransportReset Site = "transport.reset"
	// TransportTimeout makes fault.Transport fail the round trip with a
	// timeout error (net.Error with Timeout() true).
	TransportTimeout Site = "transport.timeout"
	// TransportUnavailable makes fault.Transport synthesize a 503
	// response (with a Retry-After hint) without contacting the server.
	TransportUnavailable Site = "transport.503"
	// TransportTruncate lets the round trip succeed but cuts the response
	// body off mid-stream (io.ErrUnexpectedEOF), the way a connection
	// dropped halfway through an NDJSON sweep looks to a client.
	TransportTruncate Site = "transport.truncate"
	// ServeHandlerPanic fires a panic inside an HTTP handler, before any
	// admission state is taken — the panic-recovery middleware's case.
	ServeHandlerPanic Site = "serve.handler.panic"
	// ServeRunPanic fires a panic on the run path after an admission slot
	// is held — recovery must release the slot and drop the claimed cell.
	ServeRunPanic Site = "serve.run.panic"
)

// Rule schedules one site: each passage fires with probability Rate, the
// first After passages never fire, and at most Max injections happen in
// total (Max <= 0 means unlimited — campaigns should set it so every fault
// budget is bounded). Delay is the fixed per-fire delay of slow sites.
type Rule struct {
	Rate  float64
	After int
	Max   int
	Delay time.Duration
}

// Count reports one site's traffic: how many times the site was consulted
// and how many of those passages injected a fault.
type Count struct {
	Passages int
	Fired    int
}

// siteState is one site's deterministic decision stream.
type siteState struct {
	rule     Rule
	rng      *rand.Rand
	passages int
	fired    int
}

// Plan is an installed fault schedule. The zero value of *Plan (nil) is a
// valid, permanently quiet plan; wrappers call Fire unconditionally.
// A Plan is safe for concurrent use, but decision streams are only
// reproducible when each site's passages happen in a deterministic order
// (the chaos driver serializes its campaign for exactly this reason).
type Plan struct {
	seed int64

	mu    sync.Mutex
	sites map[Site]*siteState
}

// New builds a plan from per-site rules. Each site draws from its own RNG,
// seeded by (seed, site), so adding or removing one site's rule never
// shifts another site's decision stream.
func New(seed int64, rules map[Site]Rule) *Plan {
	p := &Plan{seed: seed, sites: make(map[Site]*siteState, len(rules))}
	for site, rule := range rules {
		p.sites[site] = &siteState{rule: rule, rng: rand.New(rand.NewSource(deriveSeed(seed, site)))}
	}
	return p
}

// deriveSeed mixes the campaign seed with the site name (FNV-1a), giving
// every site an independent deterministic stream.
func deriveSeed(seed int64, site Site) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return seed ^ int64(h.Sum64())
}

// Fire records one passage at the site and reports whether the plan
// injects a fault there. A nil plan, and a plan with no rule for the site,
// never fire and cost one pointer check (respectively one map lookup).
//
//cwlint:hotpath
func (p *Plan) Fire(site Site) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	st := p.sites[site]
	if st == nil {
		p.mu.Unlock()
		return false
	}
	st.passages++
	// Always consume exactly one draw per passage, so the decision stream
	// depends only on the passage index — never on other sites or on
	// whether earlier passages fired.
	draw := st.rng.Float64()
	fire := draw < st.rule.Rate &&
		st.passages > st.rule.After &&
		(st.rule.Max <= 0 || st.fired < st.rule.Max)
	if fire {
		st.fired++
	}
	p.mu.Unlock()
	return fire
}

// FireDelay is Fire for delay sites: it returns the rule's Delay when the
// passage fires and 0 otherwise.
//
//cwlint:hotpath
func (p *Plan) FireDelay(site Site) time.Duration {
	if p == nil {
		return 0
	}
	if !p.Fire(site) {
		return 0
	}
	p.mu.Lock()
	d := p.sites[site].rule.Delay
	p.mu.Unlock()
	return d
}

// Counts snapshots every scheduled site's passage/fired counters.
func (p *Plan) Counts() map[Site]Count {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Site]Count, len(p.sites))
	for site, st := range p.sites {
		out[site] = Count{Passages: st.passages, Fired: st.fired}
	}
	return out
}

// Fired returns the total number of injections across all sites.
func (p *Plan) Fired() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, st := range p.sites {
		total += st.fired
	}
	return total
}

// Summary renders the per-site counters as sorted, deterministic report
// lines ("site: fired k of n passages").
func (p *Plan) Summary() string {
	counts := p.Counts()
	sites := make([]string, 0, len(counts))
	for site := range counts {
		sites = append(sites, string(site))
	}
	sort.Strings(sites)
	var sb strings.Builder
	for _, site := range sites {
		c := counts[Site(site)]
		fmt.Fprintf(&sb, "%s: fired %d of %d passages\n", site, c.Fired, c.Passages)
	}
	return sb.String()
}

package serve

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
)

// POST /v1/batch: the fleet transport. One round-trip carries many
// shard decisions — each item a (pair, model, frontier range) triple —
// so a coordinator amortizes connection and admission overhead across
// a whole dispatch round instead of paying it per shard. Items run
// sequentially under ONE admission slot (a batch is one unit of
// NP-hard work; parallelism comes from dispatching batches to many
// replicas), and each item's verdict is content-addressed in the same
// cache the /v1/check endpoint uses, keyed by the canonical pair, the
// model, the exact shard range, and the governance fingerprint — two
// different governance clamps or shard ranges can never alias onto
// one cached verdict.

// maxBatchItems bounds one request's work; the coordinator splits
// larger plans into multiple batches.
const maxBatchItems = 64

// BatchItem is one shard decision within a BatchRequest. RootLo/RootHi
// restrict an SC search to the frontier shard [RootLo, RootHi)
// (RootHi 0 = through the end; 0,0 = the full run) and must be 0,0 for
// the polynomial models, which are never worth splitting.
type BatchItem struct {
	// ID is echoed on the item's result so the coordinator can match
	// answers to shards without relying on order (it may retry or
	// re-dispatch subsets).
	ID     string `json:"id,omitempty"`
	Pair   string `json:"pair"`
	Model  string `json:"model"`
	RootLo int    `json:"root_lo,omitempty"`
	RootHi int    `json:"root_hi,omitempty"`
}

// BatchRequest asks for a batch of shard decisions under one
// governance block.
type BatchRequest struct {
	Items   []BatchItem `json:"items"`
	Options Options     `json:"options"`
}

// BatchResult is one item's answer. WitnessRoot and RootsTotal feed
// the fleet merge: the lowest witness root across shards wins, and
// RootsTotal lets the coordinator confirm every replica compiled the
// same frontier.
type BatchResult struct {
	ID      string         `json:"id,omitempty"`
	Model   string         `json:"model"`
	Verdict search.Verdict `json:"verdict"`
	// Witness is the witnessing sort (SC In verdicts), rendered with
	// the pair's node names exactly as /v1/check renders it.
	Witness string `json:"witness,omitempty"`
	// WitnessRoot is the global frontier index of the witness's root
	// (-1 when there is no witness); meaningful for SC only.
	WitnessRoot int `json:"witness_root"`
	// RootsTotal is the size of the whole admissible root frontier the
	// shard was cut from (SC only; 0 otherwise).
	RootsTotal   int          `json:"roots_total,omitempty"`
	LocWitnesses []string     `json:"loc_witnesses,omitempty"`
	Violation    string       `json:"violation,omitempty"`
	Stats        *SearchStats `json:"stats,omitempty"`
}

// BatchResponse answers a BatchRequest, one result per item in item
// order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// parsedPair is one distinct pair text of a batch, parsed, validated
// and canonicalized once and shared by every item that carries it.
type parsedPair struct {
	named *computation.Named
	ofn   *observer.Observer
	// digest is the pair's share of its items' cache keys: the hash of
	// the endpoint and the pair's canonical text, framed.
	digest [sha256.Size]byte
	// dec is the pair's decision context, taken from deciderPool by
	// the first item fill that needs one.
	dec *memmodel.Decider
}

// batchItem is a validated, parsed item ready to decide.
type batchItem struct {
	id     string
	model  string
	lo, hi int
	*parsedPair
}

// parseBatchItem validates one item. Its pair text is looked up in
// pairs, the request's parses keyed by the exact text, and parsed only
// on a miss: the fleet coordinator puts one pair in every item of a
// batch. A malformed item fails the whole batch with 400: batches are
// built mechanically by a coordinator, so a bad item is a caller bug,
// not data to partially tolerate.
func parseBatchItem(it BatchItem, idx int, pairs map[string]*parsedPair) (batchItem, error) {
	if e, err := memmodel.Lookup(it.Model); err != nil || e.Name() != it.Model {
		return batchItem{}, fmt.Errorf("item %d: unknown model %q (valid: %s)", idx, it.Model, strings.Join(memmodel.ModelNames(), ", "))
	}
	if it.RootLo < 0 || it.RootHi < 0 {
		return batchItem{}, fmt.Errorf("item %d: negative shard bound [%d, %d)", idx, it.RootLo, it.RootHi)
	}
	if it.RootHi > 0 && it.RootLo >= it.RootHi {
		return batchItem{}, fmt.Errorf("item %d: empty shard range [%d, %d)", idx, it.RootLo, it.RootHi)
	}
	if it.Model != "SC" && (it.RootLo != 0 || it.RootHi != 0) {
		return batchItem{}, fmt.Errorf("item %d: model %s is not shardable (shard range [%d, %d))", idx, it.Model, it.RootLo, it.RootHi)
	}
	p := pairs[it.Pair]
	if p == nil {
		named, ofn, err := observer.ParsePairString(it.Pair)
		if err != nil {
			return batchItem{}, fmt.Errorf("item %d: %w", idx, err)
		}
		if named.Comp.NumNodes() == 0 {
			return batchItem{}, fmt.Errorf("item %d: pair has no nodes", idx)
		}
		p = &parsedPair{named: named, ofn: ofn}
		p.digest = sha256.Sum256(append(observer.AppendPair(appendKeyParts(nil, "batch"), named, ofn), 0))
		pairs[it.Pair] = p
	}
	return batchItem{id: it.ID, model: it.Model, lo: it.RootLo, hi: it.RootHi, parsedPair: p}, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch has %d items, max %d", len(req.Items), maxBatchItems))
		return
	}
	items := make([]batchItem, len(req.Items))
	pairs := make(map[string]*parsedPair, 1)
	defer func() {
		for _, p := range pairs {
			if p.dec != nil {
				deciderPool.Put(p.dec)
			}
		}
	}()
	for i, it := range req.Items {
		p, err := parseBatchItem(it, i, pairs)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		items[i] = p
	}

	// One admission slot covers the whole batch; the per-item cache
	// fills below must NOT re-admit (a second admit under a held slot
	// can deadlock a fully loaded server against itself).
	release, err := s.adm.admit(r.Context())
	if err != nil {
		s.writeAdmissionError(w, r, err)
		return
	}
	defer release()

	opts, timeout := s.cfg.Limits.searchOptions(req.Options)
	fp := s.cfg.Limits.optionsFingerprint(req.Options)
	rec := s.requestRecorder(r)

	bodies := make([][]byte, len(items))
	size := len(`{"results":[]}` + "\n")
	src := sourceHit
	var kb []byte
	for i, it := range items {
		it := it
		kb = appendKeyParts(append(kb[:0], it.digest[:]...), it.model)
		kb = strconv.AppendInt(kb, int64(it.lo), 10)
		kb = strconv.AppendInt(append(kb, ','), int64(it.hi), 10)
		kb = appendKeyParts(append(kb, 0), fp)
		body, itemSrc, err := s.cache.do(r.Context(), keyOf(kb), func() ([]byte, bool, error) {
			return s.decideBatchItem(it, opts, timeout, rec)
		})
		if err != nil {
			s.writeAdmissionError(w, r, err)
			return
		}
		if itemSrc != sourceHit {
			src = sourceMiss
		}
		bodies[i] = body
		size += len(body) + len(`,"id":"",`) + len(it.id)
	}
	// The cached body is the result minus the ID (IDs vary across
	// coordinators retrying the same shard; the verdict does not). ID
	// is BatchResult's first field and omitempty, so splicing the quoted
	// ID in after the body's opening brace gives the bytes json.Marshal
	// of the whole result would.
	out := append(make([]byte, 0, size), `{"results":[`...)
	for i, it := range items {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '{')
		if it.id != "" {
			id, _ := json.Marshal(it.id) // a string always marshals
			out = append(append(append(out, `"id":`...), id...), ',')
		}
		out = append(out, bodies[i][1:]...)
	}
	respond(w, src, append(out, "]}\n"...))
}

// decideBatchItem runs one item's decision and renders its cacheable
// body. Admission is already held by the batch exchange.
func (s *Server) decideBatchItem(it batchItem, opts memmodel.SearchOptions, timeout time.Duration, rec obs.Recorder) ([]byte, bool, error) {
	ctx, cancel := s.decisionContext(timeout)
	defer cancel()

	s.countDecision(it.model)
	opts.Recorder = rec
	if it.dec == nil {
		it.dec = deciderPool.Get().(*memmodel.Decider)
		it.dec.Reset(it.named.Comp)
		it.dec.Observe(it.ofn)
	}
	var d memmodel.Decision
	witnessRoot, rootsTotal := -1, 0
	if it.model == "SC" {
		// The fleet's shard coordinate: the SC search over [lo, hi) of
		// its root frontier.
		opts.Recorder = obs.WithRun(rec, fmt.Sprintf("SC[%d,%d)", it.lo, it.hi))
		sr := it.dec.DecideSCShard(ctx, it.lo, it.hi, opts)
		d = memmodel.Decision{Model: it.model, Verdict: sr.Verdict(), Stats: sr.Stats, Order: sr.Order}
		witnessRoot, rootsTotal = sr.WitnessRoot, sr.Stats.Roots
	} else {
		var err error
		if d, err = it.dec.Decide(ctx, it.model, opts); err != nil {
			return nil, false, err // unreachable: the model name was validated
		}
	}
	r := Render(it.named, d)
	body, err := json.Marshal(BatchResult{
		Model: r.Model, Verdict: r.Verdict, Witness: r.Witness,
		WitnessRoot: witnessRoot, RootsTotal: rootsTotal,
		LocWitnesses: r.LocWitnesses, Violation: r.Violation, Stats: r.Stats,
	})
	return body, d.Verdict.Decided, err
}

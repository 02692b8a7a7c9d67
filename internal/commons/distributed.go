// Package commons implements the "shared commons" requirement: privacy-
// preserving computations over many trusted cells, so that individual
// privacy does not hinder societal benefits (census, epidemiological
// releases, global queries).
//
// The secure sum is one scatter/gather protocol over the untrusted cloud's
// mailboxes (DESIGN.md §13). A Coordinator seals a query spec into per-cell
// mailboxes; each cell's Responder evaluates it locally (for real cells,
// through the query planner and the reference monitor's aggregate gate) and
// answers with additive secret shares, each sealed to one aggregator, so no
// single aggregator learns a cell's value. The Coordinator forwards the
// shares to the Aggregator committee, intersects the committee's valid sets
// so every partial total covers the same contributors, and releases the
// combined sum only after k-anonymity suppression and Laplace noise, with
// explicit (responded, total, suppressed) accounting past a deadline. A
// committee of three is the paper's cloud-assisted setting; one as large as
// the population is pure SMC. anonymize.go holds the k-anonymity and
// Laplace helpers. E16 measures the protocol at fleet scale, E4 across
// committee sizes.
package commons

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/query"
	"trustedcells/internal/timeseries"
)

// Errors of the distributed query plane.
var (
	// ErrNoParticipants reports a query scattered to no cells.
	ErrNoParticipants = errors.New("commons: no participants")
	// ErrBadAggregators reports a committee of fewer than two aggregators.
	ErrBadAggregators = errors.New("commons: the aggregator committee needs at least 2 members")
	// ErrBadSpec reports a query spec that fails validation or a commons
	// payload whose bytes do not decode (wrong magic, wrong version,
	// truncation).
	ErrBadSpec = errors.New("commons: malformed commons payload")
	// ErrBudgetExhausted reports a query refused because releasing it would
	// exceed the coordinator's cumulative differential-privacy budget.
	ErrBudgetExhausted = errors.New("commons: privacy budget exhausted")
	// ErrGatherIncomplete reports a gather that could not assemble partial
	// totals from every aggregator before its response window closed.
	ErrGatherIncomplete = errors.New("commons: aggregator committee incomplete")
)

// Wire magics of the commons codecs. Every commons payload starts with one
// of these bytes followed by a version byte, so a truncated or foreign
// payload fails fast instead of mis-parsing.
const (
	specMagic     = 0xC6
	responseMagic = 0xC7
	controlMagic  = 0xC5
	codecVersion  = 1
)

// Mailbox message kinds of the scatter/gather protocol.
const (
	// KindQuery carries a sealed query spec from the querier to a cell.
	KindQuery = "commons-query"
	// KindResponse carries a cell's sealed partial aggregate (its share
	// vector) back to the querier.
	KindResponse = "commons-response"
	// KindShares carries the batched sealed shares of one aggregator from
	// the querier to that aggregator.
	KindShares = "commons-shares"
	// KindValid carries an aggregator's set of validated contributors back
	// to the querier.
	KindValid = "commons-valid"
	// KindFinalize carries the intersected contributor set from the querier
	// to an aggregator.
	KindFinalize = "commons-finalize"
	// KindPartial carries an aggregator's partial total (over exactly the
	// finalized contributor set) back to the querier.
	KindPartial = "commons-partial"
)

// shareFieldBytes is the fixed wire width of one additive share: a field
// element of the 127-bit share modulus, big-endian, zero-padded.
const shareFieldBytes = 16

// Community is a named group of cells provisioned with a shared symmetric
// group key (out of band, cell-to-cell — the cloud never holds it). All
// commons envelopes of the community are sealed under keys derived from the
// group key, with associated data binding community, query, cell and role so
// the untrusted cloud can neither read nor redirect them.
type Community struct {
	name string
	key  crypto.SymmetricKey
}

// NewCommunity wraps a community name and its provisioned group key.
func NewCommunity(name string, key crypto.SymmetricKey) *Community {
	return &Community{name: name, key: key}
}

// Mailbox returns the commons mailbox of a member, kept separate from the
// cell's document-sharing mailbox so a Responder poll never consumes
// unrelated messages.
func (c *Community) Mailbox(memberID string) string {
	return "commons/" + c.name + "/" + memberID
}

// memberKey seals specs to one member cell.
func (c *Community) memberKey(cellID string) crypto.SymmetricKey {
	return crypto.DeriveKey(c.key, "commons-member", c.name+"|"+cellID)
}

// aggregatorKey seals shares and control messages to one aggregator.
func (c *Community) aggregatorKey(aggID string) crypto.SymmetricKey {
	return crypto.DeriveKey(c.key, "commons-aggregator", c.name+"|"+aggID)
}

// querierKey seals responses and aggregator replies to the querier.
func (c *Community) querierKey(querierID string) crypto.SymmetricKey {
	return crypto.DeriveKey(c.key, "commons-querier", c.name+"|"+querierID)
}

// Associated-data strings binding every envelope to its protocol position.
// Opens verify the returned associated data against these, so the untrusted
// provider cannot replay an envelope into a different query, cell or role.
func (c *Community) adSpec(cellID string) []byte {
	return []byte("tc-commons-spec|" + c.name + "|" + cellID)
}
func (c *Community) adResponse(queryID, cellID string) []byte {
	return []byte("tc-commons-resp|" + c.name + "|" + queryID + "|" + cellID)
}
func (c *Community) adShare(queryID, cellID, aggID string) []byte {
	return []byte("tc-commons-share|" + c.name + "|" + queryID + "|" + cellID + "|" + aggID)
}
func (c *Community) adControl(queryID, aggID, kind string) []byte {
	return []byte("tc-commons-ctl|" + c.name + "|" + queryID + "|" + aggID + "|" + kind)
}

// openBound opens a sealed envelope and enforces the associated-data binding.
func openBound(key crypto.SymmetricKey, sealed, wantAD []byte) ([]byte, error) {
	plain, ad, err := crypto.Open(key, sealed)
	if err != nil {
		return nil, err
	}
	if string(ad) != string(wantAD) {
		return nil, fmt.Errorf("%w: envelope bound to %q", ErrBadSpec, ad)
	}
	return plain, nil
}

// Filter is the predicate of a query spec: the subset of the catalog query
// language that travels on the wire. Zero fields match everything.
type Filter struct {
	// Type restricts candidate documents to one document type (typically
	// core.SeriesDocType for time-series aggregates).
	Type string
	// Keyword restricts candidates to documents carrying the keyword.
	Keyword string
	// TagKey and TagValue restrict candidates to documents tagged key=value
	// (TagValue may be empty to match any value of TagKey).
	TagKey   string
	TagValue string
}

// Spec is one commons query: the predicate, the aggregate, the privacy
// parameters and the response window, all of which travel sealed to every
// cell of the community.
type Spec struct {
	// ID names the query; every protocol envelope binds to it.
	ID string
	// ReplyTo is the querier identity whose mailbox collects responses. The
	// Coordinator fills it from its own ID when empty.
	ReplyTo string
	// Filter selects the documents each cell aggregates locally.
	Filter Filter
	// Granularity is the bucket width of the local series aggregation; the
	// cell's policy gate still caps it per subject.
	Granularity timeseries.Granularity
	// Kind is the local aggregate a cell computes over its matching series
	// before contributing the resulting scalar to the global sum.
	Kind timeseries.AggregateKind
	// K is the k-anonymity threshold: the release is suppressed unless at
	// least K cells contributed.
	K int
	// Epsilon is the differential-privacy budget of the release: the
	// combined sum is perturbed with Laplace noise of scale
	// MaxContribution/Epsilon before leaving the querier.
	Epsilon float64
	// MaxContribution clamps each cell's contribution and is the global
	// sensitivity the Laplace noise is calibrated against.
	MaxContribution uint64
	// Deadline is the response window of each gather round: the query
	// releases with whatever contributions arrived once it elapses, so
	// stragglers cost coverage, never liveness.
	Deadline time.Duration
	// Aggregators names the committee (at least 2) the additive shares are
	// split across; no single member learns any cell's value.
	Aggregators []string
}

// Validate checks the spec's protocol invariants.
func (s *Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("%w: empty query ID", ErrBadSpec)
	}
	if s.ReplyTo == "" {
		return fmt.Errorf("%w: empty reply-to", ErrBadSpec)
	}
	if len(s.Aggregators) < 2 {
		return ErrBadAggregators
	}
	if s.K < 2 {
		return ErrBadK
	}
	if s.Epsilon <= 0 {
		return ErrBadEpsilon
	}
	if s.MaxContribution == 0 {
		return fmt.Errorf("%w: zero max contribution", ErrBadSpec)
	}
	if s.Deadline <= 0 {
		return fmt.Errorf("%w: non-positive deadline", ErrBadSpec)
	}
	return nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBytes appends a uvarint-length-prefixed byte slice.
func appendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// reader is a cursor over a binary payload whose helpers latch the first
// error, so decoders read fields linearly and check once at the end.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) { // a final zero byte: not the minimal encoding
		r.err = ErrBadSpec
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = ErrBadSpec
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = ErrBadSpec
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// flag reads a boolean byte, which the encoder writes as 0 or 1.
func (r *reader) flag() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < 1 || r.b[0] > 1 {
		r.err = ErrBadSpec
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// done returns the latched error, or ErrBadSpec when bytes remain: the
// decoders accept only what the encoders write, so an accepted payload
// re-encodes to the same bytes.
func (r *reader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: trailing bytes", ErrBadSpec)
	}
	return r.err
}

// Encode renders the spec in its versioned binary wire format: a magic byte,
// a codec version, then uvarint-length-prefixed fields.
func (s *Spec) Encode() []byte {
	b := make([]byte, 0, 128)
	b = append(b, specMagic, codecVersion)
	b = appendString(b, s.ID)
	b = appendString(b, s.ReplyTo)
	b = appendString(b, s.Filter.Type)
	b = appendString(b, s.Filter.Keyword)
	b = appendString(b, s.Filter.TagKey)
	b = appendString(b, s.Filter.TagValue)
	b = binary.AppendUvarint(b, uint64(s.Granularity))
	b = binary.AppendUvarint(b, uint64(s.Kind))
	b = binary.AppendUvarint(b, uint64(s.K))
	b = binary.AppendUvarint(b, math.Float64bits(s.Epsilon))
	b = binary.AppendUvarint(b, s.MaxContribution)
	b = binary.AppendUvarint(b, uint64(s.Deadline))
	b = binary.AppendUvarint(b, uint64(len(s.Aggregators)))
	for _, a := range s.Aggregators {
		b = appendString(b, a)
	}
	return b
}

// DecodeSpec parses the binary wire format produced by Encode.
func DecodeSpec(b []byte) (*Spec, error) {
	if len(b) < 2 || b[0] != specMagic {
		return nil, fmt.Errorf("%w: bad spec magic", ErrBadSpec)
	}
	if b[1] != codecVersion {
		return nil, fmt.Errorf("%w: unsupported spec version %d", ErrBadSpec, b[1])
	}
	r := &reader{b: b[2:]}
	s := &Spec{}
	s.ID = r.str()
	s.ReplyTo = r.str()
	s.Filter.Type = r.str()
	s.Filter.Keyword = r.str()
	s.Filter.TagKey = r.str()
	s.Filter.TagValue = r.str()
	s.Granularity = timeseries.Granularity(r.uvarint())
	s.Kind = timeseries.AggregateKind(r.uvarint())
	s.K = int(r.uvarint())
	s.Epsilon = math.Float64frombits(r.uvarint())
	s.MaxContribution = r.uvarint()
	s.Deadline = time.Duration(r.uvarint())
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = ErrBadSpec // each aggregator name costs at least one byte
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		s.Aggregators = append(s.Aggregators, r.str())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// response is a cell's reply: either a decline or one sealed share per
// aggregator, in committee order.
type response struct {
	queryID  string
	cellID   string
	declined bool
	shares   [][]byte
}

func (p *response) encode() []byte {
	b := make([]byte, 0, 64+len(p.shares)*(shareFieldBytes+64))
	b = append(b, responseMagic, codecVersion)
	b = appendString(b, p.queryID)
	b = appendString(b, p.cellID)
	if p.declined {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(p.shares)))
	for _, s := range p.shares {
		b = appendBytes(b, s)
	}
	return b
}

func decodeResponse(b []byte) (*response, error) {
	if len(b) < 2 || b[0] != responseMagic || b[1] != codecVersion {
		return nil, fmt.Errorf("%w: bad response envelope", ErrBadSpec)
	}
	r := &reader{b: b[2:]}
	p := &response{}
	p.queryID = r.str()
	p.cellID = r.str()
	p.declined = r.flag()
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = ErrBadSpec
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		p.shares = append(p.shares, r.bytes())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// control is one coordinator<->aggregator message: a share batch, a valid
// set, a finalize set, or a partial total, distinguished by the mailbox kind.
type control struct {
	queryID string
	aggID   string
	replyTo string   // querier identity the aggregator answers to
	cells   []string // contributors of a shares batch / valid set / finalize set
	shares  [][]byte // parallel to cells in a KindShares batch
	partial []byte   // field element in a KindPartial reply
}

func (c *control) encode() []byte {
	b := make([]byte, 0, 64)
	b = append(b, controlMagic, codecVersion)
	b = appendString(b, c.queryID)
	b = appendString(b, c.aggID)
	b = appendString(b, c.replyTo)
	b = binary.AppendUvarint(b, uint64(len(c.cells)))
	hasShares := byte(0)
	if c.shares != nil {
		hasShares = 1
	}
	b = append(b, hasShares)
	for i, id := range c.cells {
		b = appendString(b, id)
		if hasShares == 1 {
			b = appendBytes(b, c.shares[i])
		}
	}
	b = appendBytes(b, c.partial)
	return b
}

func decodeControl(b []byte) (*control, error) {
	if len(b) < 2 || b[0] != controlMagic || b[1] != codecVersion {
		return nil, fmt.Errorf("%w: bad control envelope", ErrBadSpec)
	}
	r := &reader{b: b[2:]}
	c := &control{}
	c.queryID = r.str()
	c.aggID = r.str()
	c.replyTo = r.str()
	n := r.uvarint()
	hasShares := r.flag()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = ErrBadSpec
	}
	if hasShares {
		c.shares = [][]byte{} // non-nil even when empty: encode writes the flag from it
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		c.cells = append(c.cells, r.str())
		if hasShares {
			c.shares = append(c.shares, r.bytes())
		}
	}
	c.partial = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// EvalFunc evaluates a query spec against one cell's local data. It returns
// the cell's clamped scalar contribution and whether the cell participates;
// ok=false declines (no matching documents, or the cell's policy refuses the
// aggregate) without revealing which. Errors abort the responder's poll.
type EvalFunc func(spec *Spec) (value uint64, ok bool, err error)

// CellEvaluator adapts a real cell to the commons plane: the spec's filter
// runs through the query planner, per-document aggregation goes through
// AggregateBatch behind the reference monitor's aggregate gate (policy
// action and granularity cap, audited), and the merged series folds to the
// scalar the cell contributes. Denied or empty results decline rather than
// error, so a refusing policy is indistinguishable from absent data.
func CellEvaluator(cell *core.Cell, subject string, actx core.AccessContext) EvalFunc {
	return func(spec *Spec) (uint64, bool, error) {
		eng := query.NewEngine(cell, subject, actx)
		res, err := eng.RunSeriesAggregate(query.SeriesAggregate{
			Filter: datamodel.Query{
				Type:     spec.Filter.Type,
				Keyword:  spec.Filter.Keyword,
				TagKey:   spec.Filter.TagKey,
				TagValue: spec.Filter.TagValue,
			},
			Granularity: spec.Granularity,
			Kind:        spec.Kind,
		})
		if err != nil {
			// No matching documents and an all-denied policy decision both
			// decline: the querier cannot tell refusal from absence.
			if errors.Is(err, query.ErrNoDocuments) || errors.Is(err, core.ErrAccessDenied) {
				return 0, false, nil
			}
			return 0, false, err
		}
		if res.Merged == nil || res.Merged.Len() == 0 {
			return 0, false, nil
		}
		total := 0.0
		for _, pt := range res.Merged.Points() {
			total += pt.Value
		}
		if spec.Kind == timeseries.AggregateMean {
			total /= float64(res.Merged.Len())
		}
		if total < 0 {
			total = 0
		}
		v := uint64(math.Round(total))
		if v > spec.MaxContribution {
			v = spec.MaxContribution
		}
		return v, true, nil
	}
}

// Responder is one cell's half of the scatter/gather protocol: it drains the
// cell's commons mailbox, evaluates each sealed spec through its evaluator,
// splits the contribution into additive shares (one per aggregator, each
// sealed so only that aggregator can open it), and posts the sealed response
// back to the querier's mailbox.
type Responder struct {
	id   string
	comm *Community
	svc  cloud.Service
	eval EvalFunc
}

// NewResponder builds a responder for member cell id, answering with eval.
func NewResponder(id string, comm *Community, svc cloud.Service, eval EvalFunc) *Responder {
	return &Responder{id: id, comm: comm, svc: svc, eval: eval}
}

// Mailbox returns the commons mailbox this responder drains.
func (r *Responder) Mailbox() string { return r.comm.Mailbox(r.id) }

// Poll receives up to max pending query messages and answers each one,
// returning how many queries it answered (declines included). Messages that
// fail to open or decode are dropped: on an untrusted transport a tampered
// query is indistinguishable from a lost one, and costs only coverage.
func (r *Responder) Poll(max int) (answered int, err error) {
	msgs, err := r.svc.Receive(r.Mailbox(), max)
	if err != nil {
		return 0, err
	}
	key := r.comm.memberKey(r.id)
	wantAD := r.comm.adSpec(r.id)
	for _, m := range msgs {
		if m.Kind != KindQuery {
			continue
		}
		plain, err := openBound(key, m.Body, wantAD)
		if err != nil {
			continue
		}
		spec, err := DecodeSpec(plain)
		if err != nil || spec.Validate() != nil {
			continue
		}
		if err := r.answer(spec); err != nil {
			return answered, err
		}
		answered++
	}
	return answered, nil
}

// answer evaluates one spec and posts the sealed response.
func (r *Responder) answer(spec *Spec) error {
	value, ok, err := r.eval(spec)
	if err != nil {
		return err
	}
	resp := &response{queryID: spec.ID, cellID: r.id, declined: !ok}
	if ok {
		if value > spec.MaxContribution {
			value = spec.MaxContribution
		}
		shares, err := crypto.AdditiveShares(value, len(spec.Aggregators))
		if err != nil {
			return err
		}
		resp.shares = make([][]byte, len(shares))
		for i, s := range shares {
			field := make([]byte, shareFieldBytes)
			s.FillBytes(field)
			sealed, err := crypto.Seal(r.comm.aggregatorKey(spec.Aggregators[i]), field,
				r.comm.adShare(spec.ID, r.id, spec.Aggregators[i]))
			if err != nil {
				return err
			}
			resp.shares[i] = sealed
		}
	}
	body, err := crypto.Seal(r.comm.querierKey(spec.ReplyTo), resp.encode(),
		r.comm.adResponse(spec.ID, r.id))
	if err != nil {
		return err
	}
	return r.svc.Send(cloud.Message{
		From: r.id,
		To:   r.comm.Mailbox(spec.ReplyTo),
		Kind: KindResponse,
		Body: body,
	})
}

// aggSession is an aggregator's per-query state: the opened share values of
// every contributor whose share authenticated, and the querier to answer.
type aggSession struct {
	replyTo string
	values  map[string]*big.Int
}

// Aggregator is one committee member: it opens the shares addressed to it,
// reports which contributors validated, and — once the querier finalizes the
// common contributor set — returns its partial total over exactly that set.
// It only ever holds one share of each cell's value, so a single compromised
// committee member learns nothing about any individual contribution.
type Aggregator struct {
	id   string
	comm *Community
	svc  cloud.Service

	mu       sync.Mutex
	sessions map[string]*aggSession
}

// NewAggregator builds a committee member with identity id.
func NewAggregator(id string, comm *Community, svc cloud.Service) *Aggregator {
	return &Aggregator{id: id, comm: comm, svc: svc, sessions: make(map[string]*aggSession)}
}

// Mailbox returns the commons mailbox this aggregator drains.
func (a *Aggregator) Mailbox() string { return a.comm.Mailbox(a.id) }

// Poll receives up to max pending protocol messages and processes each one,
// returning how many it handled. Share batches and finalize requests are
// idempotent, so the querier can re-send them through a lossy provider.
func (a *Aggregator) Poll(max int) (processed int, err error) {
	msgs, err := a.svc.Receive(a.Mailbox(), max)
	if err != nil {
		return 0, err
	}
	key := a.comm.aggregatorKey(a.id)
	for _, m := range msgs {
		var kindAD string
		switch m.Kind {
		case KindShares:
			kindAD = KindShares
		case KindFinalize:
			kindAD = KindFinalize
		default:
			continue
		}
		plain, _, err := crypto.Open(key, m.Body)
		if err != nil {
			continue
		}
		ctl, err := decodeControl(plain)
		if err != nil || ctl.aggID != a.id {
			continue
		}
		// The control wrapper's binding is re-checked against the decoded
		// query ID so a provider cannot splice one query's batch into
		// another.
		if _, err := openBound(key, m.Body, a.comm.adControl(ctl.queryID, a.id, kindAD)); err != nil {
			continue
		}
		switch m.Kind {
		case KindShares:
			err = a.handleShares(ctl)
		case KindFinalize:
			err = a.handleFinalize(ctl)
		}
		if err != nil {
			return processed, err
		}
		processed++
	}
	return processed, nil
}

// handleShares opens the batch, records the contributors whose share
// authenticated and decoded, and reports the valid set back to the querier.
// A share the provider tampered with simply fails authentication and drops
// its cell from this aggregator's valid set — the intersection step then
// drops it from the release entirely, keeping every partial consistent.
func (a *Aggregator) handleShares(ctl *control) error {
	if len(ctl.shares) != len(ctl.cells) {
		return nil // malformed batch: ignore, the querier will retry
	}
	key := a.comm.aggregatorKey(a.id)
	sess := &aggSession{replyTo: ctl.replyTo, values: make(map[string]*big.Int, len(ctl.cells))}
	for i, cellID := range ctl.cells {
		field, err := openBound(key, ctl.shares[i], a.comm.adShare(ctl.queryID, cellID, a.id))
		if err != nil || len(field) != shareFieldBytes {
			continue
		}
		v := new(big.Int).SetBytes(field)
		if v.Cmp(crypto.ShareModulus()) >= 0 {
			continue
		}
		sess.values[cellID] = v
	}
	a.mu.Lock()
	a.sessions[ctl.queryID] = sess
	a.mu.Unlock()
	valid := make([]string, 0, len(sess.values))
	for id := range sess.values {
		valid = append(valid, id)
	}
	sort.Strings(valid)
	return a.reply(ctl.queryID, sess.replyTo, KindValid, &control{
		queryID: ctl.queryID, aggID: a.id, replyTo: sess.replyTo, cells: valid,
	})
}

// handleFinalize sums the session's share values over exactly the finalized
// contributor set and replies with the sealed partial total. Re-finalizing
// recomputes the same partial, so retries through a lossy provider are safe.
func (a *Aggregator) handleFinalize(ctl *control) error {
	a.mu.Lock()
	sess := a.sessions[ctl.queryID]
	a.mu.Unlock()
	if sess == nil {
		return nil // shares batch lost: the querier's retry resends it first
	}
	total := new(big.Int)
	for _, cellID := range ctl.cells {
		v, ok := sess.values[cellID]
		if !ok {
			return nil // inconsistent finalize set: refuse to answer
		}
		total.Add(total, v)
		total.Mod(total, crypto.ShareModulus())
	}
	partial := make([]byte, shareFieldBytes)
	total.FillBytes(partial)
	return a.reply(ctl.queryID, sess.replyTo, KindPartial, &control{
		queryID: ctl.queryID, aggID: a.id, replyTo: sess.replyTo, partial: partial,
	})
}

// reply seals a control message to the querier and posts it.
func (a *Aggregator) reply(queryID, replyTo, kind string, ctl *control) error {
	body, err := crypto.Seal(a.comm.querierKey(replyTo), ctl.encode(),
		a.comm.adControl(queryID, a.id, kind))
	if err != nil {
		return err
	}
	return a.svc.Send(cloud.Message{
		From: a.id,
		To:   a.comm.Mailbox(replyTo),
		Kind: kind,
		Body: body,
	})
}

// CoordinatorConfig parameterises a Coordinator.
type CoordinatorConfig struct {
	// ID is the querier identity; responses arrive at its commons mailbox.
	ID string
	// Community is the group the coordinator queries.
	Community *Community
	// Cloud is any mailbox-capable backend (memory, durable, replicated,
	// TCP): the protocol uses only Send and Receive.
	Cloud cloud.Service
	// Clock supplies the time for deadlines; nil means time.Now.
	Clock func() time.Time
	// Rand drives the Laplace release noise; nil seeds a deterministic
	// source (fine for reproducible experiments, override in production).
	Rand *rand.Rand
	// PrivacyBudget caps the cumulative epsilon this coordinator may spend
	// across released queries; 0 means unlimited.
	PrivacyBudget float64
	// Workers bounds the scatter fan-out concurrency; 0 picks NumCPU.
	Workers int
}

// Coordinator is the querier's half of the protocol: it scatters sealed
// query specs, gathers sealed responses until the deadline, drives the
// aggregator committee to a consistent partial-total set, and releases the
// combined aggregate under k-anonymity suppression and Laplace noise while
// tracking the cumulative privacy budget.
type Coordinator struct {
	cfg   CoordinatorConfig
	clock func() time.Time

	mu    sync.Mutex
	rng   *rand.Rand
	spent float64
}

// NewCoordinator validates the config and builds a coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("%w: empty coordinator ID", ErrBadSpec)
	}
	if cfg.Community == nil {
		return nil, fmt.Errorf("%w: nil community", ErrBadSpec)
	}
	if cfg.Cloud == nil {
		return nil, fmt.Errorf("%w: nil cloud service", ErrBadSpec)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	return &Coordinator{cfg: cfg, clock: cfg.Clock, rng: cfg.Rand}, nil
}

// Mailbox returns the commons mailbox responses arrive at.
func (co *Coordinator) Mailbox() string { return co.cfg.Community.Mailbox(co.cfg.ID) }

// Pending is an in-flight query: the sealed specs have been scattered and
// Gather can be called to collect the release.
type Pending struct {
	// Spec is the validated spec as scattered (ReplyTo filled in).
	Spec Spec
	// Cells are the member cells the query was scattered to.
	Cells []string
	// BytesScattered is the total mailbox payload fanned out.
	BytesScattered int64
	// Messages counts protocol messages sent so far.
	Messages int

	start    time.Time
	deadline time.Time
}

// Scatter validates and seals the spec into every listed cell's commons
// mailbox (one sealed envelope per cell, fanned out across a worker pool)
// and returns the pending query. If the coordinator has a privacy budget,
// a query whose release would exceed it is refused up front.
func (co *Coordinator) Scatter(spec Spec, cells []string) (*Pending, error) {
	if spec.ReplyTo == "" {
		spec.ReplyTo = co.cfg.ID
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, ErrNoParticipants
	}
	co.mu.Lock()
	budget := co.cfg.PrivacyBudget
	over := budget > 0 && co.spent+spec.Epsilon > budget
	co.mu.Unlock()
	if over {
		return nil, ErrBudgetExhausted
	}
	comm := co.cfg.Community
	plain := spec.Encode()
	var bytesOut int64
	var sendErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	var scattered int64
	next := make(chan string, co.cfg.Workers)
	var mu sync.Mutex
	for w := 0; w < co.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cellID := range next {
				body, err := crypto.Seal(comm.memberKey(cellID), plain, comm.adSpec(cellID))
				if err == nil {
					err = co.cfg.Cloud.Send(cloud.Message{
						From: co.cfg.ID,
						To:   comm.Mailbox(cellID),
						Kind: KindQuery,
						Body: body,
					})
				}
				if err != nil {
					errOnce.Do(func() { sendErr = err })
					continue
				}
				mu.Lock()
				bytesOut += int64(len(body))
				scattered++
				mu.Unlock()
			}
		}()
	}
	for _, cellID := range cells {
		next <- cellID
	}
	close(next)
	wg.Wait()
	if sendErr != nil {
		return nil, sendErr
	}
	start := co.clock()
	return &Pending{
		Spec:           spec,
		Cells:          append([]string(nil), cells...),
		BytesScattered: bytesOut,
		Messages:       int(scattered),
		start:          start,
		deadline:       start.Add(spec.Deadline),
	}, nil
}

// Result is the outcome of one commons query, with the explicit
// (responded, total, suppressed) accounting the deadline semantics require.
type Result struct {
	// QueryID echoes the spec.
	QueryID string
	// Total is how many cells the query was scattered to.
	Total int
	// Responded is how many cells' contributions entered the released
	// aggregate: valid, deduplicated, consistent across the whole committee.
	Responded int
	// Declined counts cells that answered but contributed nothing (policy
	// refusal or no matching data — indistinguishable by design).
	Declined int
	// Suppressed counts responses that arrived but were excluded from the
	// aggregate: duplicates, envelopes that failed authentication, or
	// contributions whose shares did not validate at the whole committee.
	Suppressed int
	// Released reports whether the aggregate cleared the k-anonymity
	// threshold; when false the noisy fields are zero and only the
	// accounting above is published.
	Released bool
	// Sum is the exact combined sum. It exists only inside the querier's
	// enclave; publish the noisy fields, not this one.
	Sum uint64
	// NoisySum is Sum perturbed with Laplace noise of scale
	// MaxContribution/Epsilon — the releasable value.
	NoisySum float64
	// NoisyMean is NoisySum divided by the contributor count.
	NoisyMean float64
	// Epsilon is the privacy budget this release consumed (0 if suppressed).
	Epsilon float64
	// K echoes the suppression threshold the release was checked against.
	K int
	// Contributors lists the cells whose values entered the sum, sorted.
	Contributors []string
	// BytesScattered and BytesGathered measure the mailbox payload fanned
	// out to cells and collected back (responses plus committee traffic).
	BytesScattered int64
	BytesGathered  int64
	// Messages counts all protocol messages sent by any party.
	Messages int
	// Elapsed is the wall-clock time from scatter to release.
	Elapsed time.Duration
}

// gatherPoll sleeps briefly between mailbox polls when no progress was made.
const gatherPoll = 500 * time.Microsecond

// Gather collects responses until every cell answered or, past the
// deadline, a poll finds none sent by it; then it drives the committee
// (pumping the given in-process aggregators, which the spec must name) and
// returns the release. Committee traffic is retried through lossy
// providers; ErrGatherIncomplete reports a committee not assembled within
// one extra deadline window.
func (co *Coordinator) Gather(p *Pending, aggs []*Aggregator) (*Result, error) {
	comm := co.cfg.Community
	spec := &p.Spec
	res := &Result{
		QueryID:        spec.ID,
		Total:          len(p.Cells),
		K:              spec.K,
		BytesScattered: p.BytesScattered,
		Messages:       p.Messages,
	}
	qKey := comm.querierKey(co.cfg.ID)
	member := make(map[string]bool, len(p.Cells))
	for _, c := range p.Cells {
		member[c] = true
	}

	// Round 1: collect cell responses.
	responses := make(map[string]*response)
	declined := make(map[string]bool)
	for {
		late := co.clock().After(p.deadline)
		msgs, err := co.cfg.Cloud.Receive(co.Mailbox(), 1024)
		if err != nil {
			return nil, err
		}
		progress := false
		for _, m := range msgs {
			if m.Kind != KindResponse || late && m.Sent.After(p.deadline) {
				continue // a stale committee reply, or sent after the deadline
			}
			plain, ad, err := crypto.Open(qKey, m.Body)
			if err != nil {
				res.Suppressed++
				continue
			}
			resp, err := decodeResponse(plain)
			if err != nil || resp.queryID != spec.ID || !member[resp.cellID] ||
				string(ad) != string(comm.adResponse(spec.ID, resp.cellID)) {
				res.Suppressed++
				continue
			}
			if responses[resp.cellID] != nil || declined[resp.cellID] {
				res.Suppressed++ // duplicate (replayed) response
				continue
			}
			res.BytesGathered += int64(len(m.Body))
			progress = true
			if resp.declined || len(resp.shares) != len(spec.Aggregators) {
				declined[resp.cellID] = true
				continue
			}
			responses[resp.cellID] = resp
		}
		if len(responses)+len(declined) >= len(p.Cells) {
			break
		}
		if !progress {
			if late {
				break
			}
			time.Sleep(gatherPoll)
		}
	}
	res.Declined = len(declined)

	// Rounds 2-3: drive the committee to a consistent partial-total set.
	// The whole committee exchange gets one more deadline window and is
	// retried through message loss (share batches and finalizes are
	// idempotent on the aggregator side).
	contributors := make([]string, 0, len(responses))
	for id := range responses {
		contributors = append(contributors, id)
	}
	sort.Strings(contributors)

	if len(contributors) > 0 {
		final, partials, bytesCommittee, msgs, err := co.runCommittee(spec, responses, contributors, aggs)
		if err != nil {
			return nil, err
		}
		res.BytesGathered += bytesCommittee
		res.Messages += msgs
		res.Suppressed += len(contributors) - len(final)
		contributors = final
		if len(final) > 0 {
			res.Sum = crypto.CombineAggregates(partials)
		}
	}
	res.Responded = len(contributors)
	res.Contributors = contributors
	res.Messages += len(responses) + len(declined)

	// Release: k-anonymity suppression, then calibrated Laplace noise.
	if res.Responded >= spec.K {
		res.Released = true
		res.Epsilon = spec.Epsilon
		co.mu.Lock()
		noise := laplace(co.rng, float64(spec.MaxContribution)/spec.Epsilon)
		co.spent += spec.Epsilon
		co.mu.Unlock()
		res.NoisySum = float64(res.Sum) + noise
		res.NoisyMean = res.NoisySum / float64(res.Responded)
	}
	res.Elapsed = co.clock().Sub(p.start)
	return res, nil
}

// runCommittee distributes each aggregator's share batch, collects the valid
// sets, intersects them, finalizes, and collects the partial totals. The
// given in-process aggregators are pumped between polls; message loss is
// handled by periodic re-sends of the idempotent batches.
func (co *Coordinator) runCommittee(spec *Spec, responses map[string]*response,
	contributors []string, aggs []*Aggregator) (final []string, partials []*big.Int, bytes int64, msgs int, err error) {

	comm := co.cfg.Community
	qKey := comm.querierKey(co.cfg.ID)
	deadline := co.clock().Add(spec.Deadline)

	sendTo := func(aggIdx int, kind string, ctl *control) error {
		body, err := crypto.Seal(comm.aggregatorKey(spec.Aggregators[aggIdx]), ctl.encode(),
			comm.adControl(spec.ID, spec.Aggregators[aggIdx], kind))
		if err != nil {
			return err
		}
		msgs++
		bytes += int64(len(body))
		return co.cfg.Cloud.Send(cloud.Message{
			From: co.cfg.ID,
			To:   comm.Mailbox(spec.Aggregators[aggIdx]),
			Kind: kind,
			Body: body,
		})
	}
	shareBatch := func(aggIdx int) *control {
		ctl := &control{
			queryID: spec.ID, aggID: spec.Aggregators[aggIdx], replyTo: co.cfg.ID,
			cells: contributors, shares: make([][]byte, len(contributors)),
		}
		for i, cellID := range contributors {
			ctl.shares[i] = responses[cellID].shares[aggIdx]
		}
		return ctl
	}
	pump := func() {
		for _, a := range aggs {
			_, _ = a.Poll(16)
		}
	}
	// Retry cadence for silent aggregators: a fraction of the deadline so a
	// short drill window still fits several attempts, clamped so a long
	// window doesn't re-seal large share batches needlessly.
	retryEvery := spec.Deadline / 8
	if retryEvery < 20*time.Millisecond {
		retryEvery = 20 * time.Millisecond
	}
	if retryEvery > 100*time.Millisecond {
		retryEvery = 100 * time.Millisecond
	}
	// collect polls the querier mailbox for committee replies of the wanted
	// kind until every aggregator answered or the window closes, re-sending
	// the request to silent aggregators along the way.
	collect := func(kind string, resend func(aggIdx int) error) (map[string]*control, error) {
		got := make(map[string]*control, len(spec.Aggregators))
		retryAt := co.clock().Add(retryEvery)
		for {
			pump()
			replies, err := co.cfg.Cloud.Receive(co.Mailbox(), 64)
			if err != nil {
				return nil, err
			}
			progress := false
			for _, m := range replies {
				if m.Kind != kind {
					continue
				}
				plain, ad, err := crypto.Open(qKey, m.Body)
				if err != nil {
					continue
				}
				ctl, err := decodeControl(plain)
				if err != nil || ctl.queryID != spec.ID {
					continue
				}
				if string(ad) != string(comm.adControl(spec.ID, ctl.aggID, kind)) {
					continue
				}
				if _, dup := got[ctl.aggID]; dup {
					continue
				}
				bytes += int64(len(m.Body))
				msgs++
				got[ctl.aggID] = ctl
				progress = true
			}
			if len(got) >= len(spec.Aggregators) {
				return got, nil
			}
			now := co.clock()
			if now.After(deadline) {
				return nil, ErrGatherIncomplete
			}
			if progress {
				// Replies still arriving: a large committee needs many polls
				// to drain, and its silent members are queued, not lost.
				retryAt = now.Add(retryEvery)
			} else if now.After(retryAt) {
				for i, aggID := range spec.Aggregators {
					if _, ok := got[aggID]; !ok {
						if err := resend(i); err != nil {
							return nil, err
						}
					}
				}
				retryAt = now.Add(retryEvery)
			}
			if !progress {
				time.Sleep(gatherPoll)
			}
		}
	}

	// Round 2: shares out, valid sets back, intersect.
	sendShares := func(i int) error {
		return sendTo(i, KindShares, shareBatch(i))
	}
	for i := range spec.Aggregators {
		if err := sendShares(i); err != nil {
			return nil, nil, 0, msgs, err
		}
	}
	valids, err := collect(KindValid, sendShares)
	if err != nil {
		return nil, nil, bytes, msgs, err
	}
	inAll := make(map[string]int, len(contributors))
	for _, ctl := range valids {
		for _, cellID := range ctl.cells {
			inAll[cellID]++
		}
	}
	final = final[:0]
	for _, cellID := range contributors {
		if inAll[cellID] == len(spec.Aggregators) {
			final = append(final, cellID)
		}
	}
	if len(final) == 0 {
		return final, nil, bytes, msgs, nil
	}

	// Round 3: finalize the common set, partial totals back, combine.
	sendFinalize := func(i int) error {
		return sendTo(i, KindFinalize, &control{
			queryID: spec.ID, aggID: spec.Aggregators[i], replyTo: co.cfg.ID, cells: final,
		})
	}
	for i := range spec.Aggregators {
		if err := sendFinalize(i); err != nil {
			return nil, nil, bytes, msgs, err
		}
	}
	resendBoth := func(i int) error {
		// A lost shares batch surfaces here as a silent aggregator: resend
		// both idempotent requests so it can catch up within the window.
		if err := sendShares(i); err != nil {
			return err
		}
		return sendFinalize(i)
	}
	parts, err := collect(KindPartial, resendBoth)
	if err != nil {
		return nil, nil, bytes, msgs, err
	}
	partials = make([]*big.Int, 0, len(spec.Aggregators))
	for _, aggID := range spec.Aggregators {
		ctl := parts[aggID]
		if ctl == nil || len(ctl.partial) != shareFieldBytes {
			return nil, nil, bytes, msgs, ErrGatherIncomplete
		}
		partials = append(partials, new(big.Int).SetBytes(ctl.partial))
	}
	return final, partials, bytes, msgs, nil
}

// Query scatters the spec, pumps the given responders and aggregators, and
// gathers the release — the one-call path for in-process fleets (tests, the
// tccell demo). Distributed deployments call Scatter and Gather directly and
// let remote cells poll on their own schedule.
func (co *Coordinator) Query(spec Spec, responders []*Responder, aggs []*Aggregator) (*Result, error) {
	cells := make([]string, len(responders))
	for i, r := range responders {
		cells[i] = r.id
	}
	p, err := co.Scatter(spec, cells)
	if err != nil {
		return nil, err
	}
	for _, r := range responders {
		if _, err := r.Poll(16); err != nil {
			return nil, err
		}
	}
	return co.Gather(p, aggs)
}

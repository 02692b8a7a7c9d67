// Package core implements the trusted cell itself: a personal data server
// acting as a client-side reference monitor on top of simulated secure
// hardware. It combines the substrates — TEE, embedded storage, metadata
// catalog, access-control policies, usage control, audit — and the untrusted
// cloud into the six capabilities the paper lists for a full-fledged trusted
// cell: (1) acquire and synchronize data, (2) extract and query metadata,
// (3) cryptographically protect data, (4) enforce access and usage control,
// (5) make all actions accountable, (6) participate in distributed
// computations.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/storage"
	syncpkg "trustedcells/internal/sync"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
	"trustedcells/internal/ucon"
)

// Errors returned by the cell.
var (
	ErrAccessDenied    = errors.New("core: access denied")
	ErrIntegrity       = errors.New("core: integrity verification failed")
	ErrNotOwner        = errors.New("core: operation reserved to the authenticated owner")
	ErrUnknownDocument = errors.New("core: unknown document")
	ErrGranularity     = errors.New("core: requested granularity finer than the policy allows")
	ErrNotSeries       = errors.New("core: document is not a time series")
)

// SeriesDocType is the document type used for time-series payloads; aggregate
// queries are only valid on documents of this type.
const SeriesDocType = "power-series"

// Config describes a new cell.
type Config struct {
	// ID is the cell identifier (also the cloud namespace prefix).
	ID string
	// Class selects the hardware profile.
	Class tamper.HardwareClass
	// PIN protects owner operations.
	PIN string
	// Cloud is the untrusted infrastructure the cell uses. It may be nil for
	// a fully disconnected cell (e.g. a sensor-side cell).
	Cloud cloud.Service
	// Seed, when non-empty, provisions the TEE deterministically (used by the
	// simulator for reproducible populations).
	Seed []byte
	// Clock overrides time.Now (simulations).
	Clock func() time.Time
	// CacheBytes bounds the local encrypted cache memtable; zero selects a
	// default adapted to the hardware class.
	CacheBytes int
}

// Cell is a trusted cell: the user's personal data server.
type Cell struct {
	// mu guards the mutable maps below and the access rules: reads take it
	// shared to evaluate rules while an accepted offer may install new ones.
	mu sync.RWMutex

	id      string
	tee     *tamper.TEE
	keys    *crypto.KeyHierarchy
	catalog *datamodel.Catalog
	cache   *storage.PersistentKV
	access  *policy.Set
	usage   *ucon.Monitor
	log     *audit.Log
	cloud   cloud.Service
	clock   func() time.Time

	// trustedIssuers are the credential issuers this cell accepts.
	trustedIssuers map[string]crypto.VerifyKey
	// pairings are shared secrets with peer cells, sealed in the TEE and
	// referenced here by peer ID.
	pairings map[string]bool
	// remoteDocs tracks documents received from other cells: docID ->
	// originator ID, plus the sticky policy that travels with them.
	remoteDocs map[string]*policy.StickyPolicy
	// approvals tracks outgoing approbation requests (IngestReferencing);
	// incomingApprovals holds requests awaiting this owner's decision.
	approvals         map[string]*outgoingApproval
	incomingApprovals map[string]ApprovalRequest
	// replica, when attached, mirrors every owner ingest into the sharded
	// anti-entropy synchronizer so the user's other cells converge on the
	// same metadata catalog (see AttachReplica). Documents received from
	// *other* users via the sharing protocol are deliberately not mirrored:
	// their keys were sent to this cell alone, so replicating their
	// metadata would hand sibling cells entries they cannot open.
	replica *syncpkg.Replica
}

// New creates, provisions and unlocks a cell.
func New(cfg Config) (*Cell, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("core: cell requires an ID")
	}
	if cfg.PIN == "" {
		cfg.PIN = "0000"
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	profile := tamper.DefaultProfile(cfg.Class)
	tee := tamper.New(profile)
	var err error
	if len(cfg.Seed) > 0 {
		err = tee.ProvisionDeterministic(cfg.Seed, cfg.PIN)
	} else {
		err = tee.Provision(cfg.PIN)
	}
	if err != nil {
		return nil, fmt.Errorf("core: provisioning %s: %w", cfg.ID, err)
	}
	if err := tee.Unlock(cfg.PIN); err != nil {
		return nil, fmt.Errorf("core: unlocking %s: %w", cfg.ID, err)
	}
	keys, err := tee.KeyHierarchy()
	if err != nil {
		return nil, fmt.Errorf("core: key hierarchy: %w", err)
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = profile.RAMBudget / 4
		if cacheBytes > 1<<20 {
			cacheBytes = 1 << 20
		}
	}
	// Each cache generation is a fresh metered memory device, so the engine's
	// page traffic is charged to the TEE and a replaced generation is freed.
	newDevice := func() storage.Device { return storage.NewMeteredDevice(storage.NewMemDevice(0), tee.Meter()) }
	cell := &Cell{
		id:                cfg.ID,
		tee:               tee,
		keys:              keys,
		catalog:           datamodel.NewCatalog(),
		cache:             storage.NewMemoryKV(newDevice, storage.PersistentOptions{MemtableBytes: cacheBytes}),
		access:            policy.NewSet(cfg.ID),
		usage:             ucon.NewMonitor(),
		log:               audit.NewLog(),
		cloud:             cfg.Cloud,
		clock:             clock,
		trustedIssuers:    make(map[string]crypto.VerifyKey),
		pairings:          make(map[string]bool),
		remoteDocs:        make(map[string]*policy.StickyPolicy),
		approvals:         make(map[string]*outgoingApproval),
		incomingApprovals: make(map[string]ApprovalRequest),
	}
	return cell, nil
}

// ID returns the cell identifier.
func (c *Cell) ID() string { return c.id }

// Identity returns the cell's attestation public key.
func (c *Cell) Identity() (crypto.VerifyKey, error) { return c.tee.Identity() }

// TEE exposes the underlying secure hardware (for attestation, cost metering
// and lock/unlock flows).
func (c *Cell) TEE() *tamper.TEE { return c.tee }

// AuditLog returns the cell's audit log.
func (c *Cell) AuditLog() *audit.Log { return c.log }

// Catalog returns the metadata catalog (owner-side use and tests).
func (c *Cell) Catalog() *datamodel.Catalog { return c.catalog }

// AccessPolicy returns a snapshot of the cell's access-control policy set:
// changing it changes no decision of the cell (AddRule does).
func (c *Cell) AccessPolicy() *policy.Set {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.access.Clone()
}

// TrustIssuer registers a credential issuer the cell accepts.
func (c *Cell) TrustIssuer(id string, key crypto.VerifyKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trustedIssuers[id] = key
}

// TrustedIssuers returns a copy of the trusted issuer registry.
func (c *Cell) TrustedIssuers() map[string]crypto.VerifyKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]crypto.VerifyKey, len(c.trustedIssuers))
	for k, v := range c.trustedIssuers {
		out[k] = v
	}
	return out
}

// AddRule appends an access-control rule (owner operation).
func (c *Cell) AddRule(r policy.Rule) error {
	if c.tee.Locked() {
		return ErrNotOwner
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.access.Add(r)
}

// AttachUsagePolicy attaches a usage-control policy (owner operation).
func (c *Cell) AttachUsagePolicy(p ucon.Policy) error {
	if c.tee.Locked() {
		return ErrNotOwner
	}
	return c.usage.Attach(p)
}

// AttachReplica connects a catalog replica to the cell: from now on every
// ingested document is mirrored into the replica (marking its shard dirty),
// so a later SyncCatalog pushes exactly the changed shards to the user's
// other cells. Documents received through the sharing protocol stay
// cell-local (their keys were sent to this cell alone). The replica should be
// built over the same cloud service and user ID as the cell.
//
// Attaching also backs the replica's attestation epochs with the TEE's
// tamper-resistant monotonic counters (one per shard), so the freshness
// frontier the rollback/fork audit relies on survives cell restarts the way
// the paper's secure microcontroller state does.
func (c *Cell) AttachReplica(r *syncpkg.Replica) {
	tee := c.tee
	r.SetEpochSource(func(shard int) (uint64, error) {
		return tee.CounterIncrement(fmt.Sprintf("sync-epoch/%04d", shard))
	})
	c.mu.Lock()
	c.replica = r
	c.mu.Unlock()
}

// Replica returns the attached catalog replica (nil when none is attached).
func (c *Cell) Replica() *syncpkg.Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replica
}

// mirrorToReplica records a catalog mutation in the attached replica, if any.
func (c *Cell) mirrorToReplica(doc *datamodel.Document) {
	if r := c.Replica(); r != nil {
		r.Upsert(doc)
	}
}

// SyncCatalog runs one anti-entropy round of the attached replica: pull the
// shards that advanced remotely, fold every replicated change — additions,
// metadata updates and deletions — into the catalog, then push the locally
// dirty shards. It is how a weakly connected cell catches up after an
// offline stretch.
func (c *Cell) SyncCatalog() error {
	r := c.Replica()
	if r == nil {
		return fmt.Errorf("core: no replica attached to %s", c.id)
	}
	if err := r.Sync(); err != nil {
		return err
	}
	changes := r.DrainChanges()
	for i, ch := range changes {
		if err := c.foldChange(ch); err != nil {
			// Put the unapplied tail back so the next round retries it
			// instead of silently diverging catalog and replica.
			r.RequeueChanges(changes[i:])
			return fmt.Errorf("core: sync catalog: %w", err)
		}
	}
	return nil
}

// foldChange applies one replicated change to the catalog. It tolerates the
// races the narrow replica locking allows (a concurrent Ingest adding the
// same document between the membership probe and the write) by trying the
// update and insert paths in turn rather than trusting a single probe.
func (c *Cell) foldChange(ch syncpkg.Change) error {
	if ch.Deleted {
		if _, err := c.catalog.Get(ch.DocID); err != nil {
			return nil // already absent
		}
		return c.catalog.Remove(ch.DocID)
	}
	if ch.Doc == nil {
		return nil // a live entry without metadata cannot be indexed
	}
	if err := c.catalog.Update(ch.Doc); err == nil {
		return nil
	}
	if err := c.catalog.Add(ch.Doc); err == nil {
		return nil
	}
	// Added concurrently since the Update attempt; one more update settles it.
	return c.catalog.Update(ch.Doc)
}

// blobName is the cloud name of a document payload.
func (c *Cell) blobName(docID string) string {
	return c.id + "/vault/" + docID
}

// IngestOptions describe a document being ingested into the cell.
type IngestOptions struct {
	Class    datamodel.DataClass
	Type     string
	Title    string
	Keywords []string
	Tags     map[string]string
}

// Ingest acquires a payload into the personal data space: the payload is
// sealed under a per-document key, the ciphertext is cached locally and
// pushed to the cloud vault, and the metadata is indexed in the catalog.
// Ingest is an owner operation, an IngestBatch of one.
func (c *Cell) Ingest(payload []byte, opts IngestOptions) (*datamodel.Document, error) {
	docs, err := c.IngestBatch([]IngestItem{{Payload: payload, Opts: opts}})
	if err != nil {
		return nil, err
	}
	return docs[0], nil
}

// IngestSeries serialises a time series and ingests it as a SeriesDocType
// document.
func (c *Cell) IngestSeries(s *timeseries.Series, title string, keywords []string, tags map[string]string) (*datamodel.Document, error) {
	payload, err := encodeSeries(s)
	if err != nil {
		return nil, err
	}
	return c.Ingest(payload, IngestOptions{
		Class:    datamodel.ClassSensed,
		Type:     SeriesDocType,
		Title:    title,
		Keywords: keywords,
		Tags:     tags,
	})
}

// seriesPayload is the JSON encoding of a series document payload.
type seriesPayload struct {
	Name   string             `json:"name"`
	Unit   string             `json:"unit"`
	Points []timeseries.Point `json:"points"`
}

func encodeSeries(s *timeseries.Series) ([]byte, error) {
	return json.Marshal(seriesPayload{Name: s.Name(), Unit: s.Unit(), Points: s.Points()})
}

func decodeSeries(data []byte) (*timeseries.Series, error) {
	var p seriesPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSeries, err)
	}
	s := timeseries.NewSeries(p.Name, p.Unit)
	for _, pt := range p.Points {
		if err := s.Append(pt); err != nil {
			return nil, fmt.Errorf("core: decode series: %w", err)
		}
	}
	return s, nil
}

// warmCache writes a verified sealed payload back to the local cache, so the
// next read of the same document stays local. Best effort: the read already
// has the bytes even if caching them fails. The cache key lives in pooled
// scratch (the memtable copies it on apply).
func (c *Cell) warmCache(docID string, sealed []byte) {
	kb := keyBufs.Get()
	_ = c.cache.Apply([]storage.Op{{Key: appendPayloadKey(*kb, docID), Value: sealed}})
	keyBufs.Put(kb)
}

// openSealedTo decrypts and integrity-checks a sealed payload, appending the
// plaintext to dst: decryption in one pass (the associated data is verified
// in place, never copied), the content hash compared without materializing
// its hex form. It only reads immutable cell state, so it is safe from many
// workers at once.
func (c *Cell) openSealedTo(dst []byte, doc *datamodel.Document, key crypto.SymmetricKey, owner string, sealed []byte) ([]byte, error) {
	plain, ad, err := crypto.OpenTo(dst, key, sealed)
	if err != nil {
		return nil, fmt.Errorf("%w: envelope of %s", ErrIntegrity, doc.ID)
	}
	if !matchesAssociatedData(ad, owner, doc.ID) {
		return nil, fmt.Errorf("%w: associated data of %s", ErrIntegrity, doc.ID)
	}
	if doc.ContentHash != "" && !crypto.HashMatchesHex(plain, doc.ContentHash) {
		return nil, fmt.Errorf("%w: content hash of %s", ErrIntegrity, doc.ID)
	}
	return plain, nil
}

// AccessContext carries the requester-side context of a read request.
type AccessContext struct {
	Location string
	Purpose  string
	// Credentials are presented by the requester; only those verifying
	// against the cell's trusted issuers contribute attributes.
	Credentials []*policy.Credential
	// Groups declared by the owner for this subject (e.g. "household").
	Groups []string
	// FulfilledObligations lists pre-obligations the requester has fulfilled.
	FulfilledObligations []ucon.ObligationKind
}

func (c *Cell) subject(subjectID string, ctx AccessContext) policy.Subject {
	return policy.SubjectFromCredentials(subjectID, ctx.Groups, ctx.Credentials, c.clock(), c.TrustedIssuers())
}

func (c *Cell) appendAudit(actor, action, resource string, outcome audit.Outcome, reason, originator string) {
	c.log.Append(audit.Record{
		Time:       c.clock(),
		Actor:      actor,
		Action:     action,
		Resource:   resource,
		Outcome:    outcome,
		Reason:     reason,
		Originator: originator,
	})
}

// Read returns the plaintext payload of a document if the access-control
// policy and the usage-control monitor both allow it. Every attempt is
// audited. It is a ReadBatch of one.
func (c *Cell) Read(subjectID, docID string, ctx AccessContext) ([]byte, error) {
	r := c.ReadBatch(subjectID, []string{docID}, ctx)[0]
	return r.Payload, r.Err
}

// Aggregate evaluates an aggregate query over a time-series document at the
// requested granularity, under the same gate as Read plus the policy's
// MaxGranularity cap. It is an AggregateBatch of one.
func (c *Cell) Aggregate(subjectID, docID string, g timeseries.Granularity, kind timeseries.AggregateKind, ctx AccessContext) (*timeseries.Series, error) {
	r := c.AggregateBatch(subjectID, []string{docID}, g, kind, ctx)[0]
	return r.Series, r.Err
}

// Search runs a metadata query over the catalog. Searching is an owner
// operation: the catalog itself never leaves the cell.
func (c *Cell) Search(q datamodel.Query) ([]*datamodel.Document, error) {
	if c.tee.Locked() {
		return nil, ErrNotOwner
	}
	return c.catalog.Search(q), nil
}

// SearchPlan runs a metadata query and additionally returns the execution
// plan the catalog chose for it (owner operation).
func (c *Cell) SearchPlan(q datamodel.Query) ([]*datamodel.Document, datamodel.PlanInfo, error) {
	if c.tee.Locked() {
		return nil, datamodel.PlanInfo{}, ErrNotOwner
	}
	docs, plan := c.catalog.SearchPlan(q)
	return docs, plan, nil
}

// notifyOriginator pushes the audit records concerning docID to the
// originator cell's mailbox over the pairing channel.
func (c *Cell) notifyOriginator(originator, docID, subjectID string) error {
	if originator == "" {
		return fmt.Errorf("core: no originator to notify for %s", docID)
	}
	// Record the access being notified before exporting.
	c.appendAudit(subjectID, "notify-originator", docID, audit.OutcomeAllowed, "usage obligation", originator)
	return c.sendPaired(originator, kindAuditSegment, c.log.DestinedTo(originator))
}

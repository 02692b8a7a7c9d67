// Package trustedcells is the public facade of the Trusted Cells library, a
// reproduction of "Trusted Cells: A Sea Change for Personal Data Services"
// (Anciaux, Bonnet, Bouganim, Nguyen, Sandu Popa, Pucheral — CIDR 2013).
//
// A trusted cell is a personal data server running on (simulated) secure
// hardware at the edge of the network. It acquires personal data from trusted
// sources, protects it cryptographically, stores the sealed payloads on an
// untrusted cloud, and enforces the owner's access-control, usage-control and
// accountability rules on every request — including requests arriving from
// other cells with which data has been shared.
//
// The facade re-exports the types a downstream application needs: the Cell
// itself, the untrusted infrastructure (in-memory and TCP), the data model,
// policies, usage control, time-series tooling, trusted-source simulators,
// the shared-commons protocols, and the experiment harness. Quick start:
//
//	svc := trustedcells.NewMemoryCloud()
//	cell, err := trustedcells.NewCell(trustedcells.CellConfig{
//		ID:    "alice-gateway",
//		Class: trustedcells.ClassHomeGateway,
//		Cloud: svc,
//	})
//	if err != nil { ... }
//	doc, err := cell.Ingest(payload, trustedcells.IngestOptions{
//		Class: trustedcells.ClassAuthored, Type: "photo", Title: "Holiday",
//	})
//
// See examples/ for complete scenarios (the energy-butler smart-meter
// deployment, pay-as-you-drive pricing, and an epidemiological shared
// commons), and internal/sim for the experiment suite documented in
// DESIGN.md and EXPERIMENTS.md.
package trustedcells

import (
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/commons"
	"trustedcells/internal/core"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/query"
	"trustedcells/internal/sensor"
	"trustedcells/internal/sim"
	"trustedcells/internal/storage"
	syncpkg "trustedcells/internal/sync"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
	"trustedcells/internal/ucon"
)

// Cell is a trusted cell: the user's personal data server (see core.Cell).
type Cell = core.Cell

// CellConfig configures a new cell.
type CellConfig = core.Config

// IngestOptions describe a document being acquired by a cell.
type IngestOptions = core.IngestOptions

// IngestItem is one document of a batched ingest (see Cell.IngestBatch).
type IngestItem = core.IngestItem

// AccessContext carries requester-side context (credentials, purpose,
// location, fulfilled obligations).
type AccessContext = core.AccessContext

// ShareOptions describe the terms of a secure share between cells.
type ShareOptions = core.ShareOptions

// Document is the metadata of one item of the personal data space.
type Document = datamodel.Document

// Query is a metadata query over a cell's catalog.
type Query = datamodel.Query

// PlanInfo explains how the catalog's planner executed one search: the
// driving index, the intersected indexes, and how much of the catalog was
// touched (see Cell.SearchPlan and QueryEngine.Explain).
type PlanInfo = datamodel.PlanInfo

// CatalogIndexStats accumulates planner counters across searches (see
// Catalog.IndexStats).
type CatalogIndexStats = datamodel.IndexStats

// ReadResult is the outcome for one document of a Cell.ReadBatch call, which
// fetches all payloads missing from the local cache in one cloud round-trip.
type ReadResult = core.ReadResult

// AggregateResult is the outcome for one document of a Cell.AggregateBatch
// call.
type AggregateResult = core.AggregateResult

// QueryEngine executes cross-document queries against a cell on behalf of a
// subject through the planned, batched read pipeline: indexed catalog plan,
// one batched cloud exchange per query, parallel decryption, streaming merge.
type QueryEngine = query.Engine

// SeriesAggregate describes an aggregate query over every series document
// matching a metadata filter; SeriesResult is its merged outcome.
type (
	SeriesAggregate = query.SeriesAggregate
	SeriesResult    = query.SeriesResult
)

// Rule is one access-control rule; Condition restricts when it applies;
// Action and Effect are its vocabulary; Credential is a signed attribute
// statement presented by a requester.
type (
	Rule       = policy.Rule
	Condition  = policy.Condition
	Resource   = policy.Resource
	Action     = policy.Action
	Effect     = policy.Effect
	Credential = policy.Credential
)

// UsagePolicy is a usage-control (UCON) policy attached to a document.
type UsagePolicy = ucon.Policy

// Series is an append-only time series; Granularity its reporting resolution.
type (
	Series      = timeseries.Series
	Granularity = timeseries.Granularity
	Point       = timeseries.Point
)

// CloudService is the untrusted infrastructure interface.
type CloudService = cloud.Service

// BatchCloudService is the optional batch extension of CloudService: one
// round-trip uploads or fetches many blobs. The in-memory cloud and the TCP
// client both implement it; Cell.IngestBatch exploits it automatically.
type BatchCloudService = cloud.BatchService

// BlobPut is one named payload of a batched upload.
type BlobPut = cloud.BlobPut

// ConditionalCloudService is the optional conditional-fetch extension of
// CloudService: one round-trip returns data only for the blobs whose stored
// version advanced past what the caller already holds (a batched
// If-None-Match). The in-memory cloud and the TCP client both implement it;
// the delta synchronizer exploits it automatically.
type ConditionalCloudService = cloud.ConditionalBatchService

// CondGet names one blob of a conditional batched fetch.
type CondGet = cloud.CondGet

// Replica is one cell's replica of the user's metadata catalog, synchronized
// across the user's trusted cells through the untrusted cloud by the sharded
// delta anti-entropy protocol (see Cell.AttachReplica and Cell.SyncCatalog).
// Every pushed shard carries its writer's signed attestation, and a shard
// without one is refused.
type Replica = syncpkg.Replica

// ReplicaTransfer is a snapshot of a replica's synchronization traffic:
// pushes, pulls, sealed bytes and shard blobs moved in each direction.
type ReplicaTransfer = syncpkg.Transfer

// DefaultSyncShards is the default replication shard count of a catalog
// replica.
const DefaultSyncShards = syncpkg.DefaultShardCount

// Hardware classes of the devices hosting cells.
const (
	ClassSecureToken    = tamper.ClassSecureToken
	ClassSecureMCU      = tamper.ClassSecureMCU
	ClassTrustZonePhone = tamper.ClassTrustZonePhone
	ClassHomeGateway    = tamper.ClassHomeGateway
)

// Data provenance classes (paper's classification).
const (
	ClassSensed   = datamodel.ClassSensed
	ClassExternal = datamodel.ClassExternal
	ClassAuthored = datamodel.ClassAuthored
)

// Policy effects and actions.
const (
	EffectAllow     = policy.EffectAllow
	EffectDeny      = policy.EffectDeny
	ActionRead      = policy.ActionRead
	ActionAggregate = policy.ActionAggregate
	ActionWrite     = policy.ActionWrite
	ActionShare     = policy.ActionShare
	ActionDelete    = policy.ActionDelete
)

// Time-series granularities and aggregate kinds.
const (
	GranularitySecond = timeseries.GranularitySecond
	GranularityMinute = timeseries.GranularityMinute
	Granularity15Min  = timeseries.Granularity15Min
	GranularityHour   = timeseries.GranularityHour
	GranularityDay    = timeseries.GranularityDay
	AggregateMean     = timeseries.AggregateMean
	AggregateSum      = timeseries.AggregateSum
	AggregateMax      = timeseries.AggregateMax
	AggregateMin      = timeseries.AggregateMin
)

// NewCell creates, provisions and unlocks a trusted cell.
func NewCell(cfg CellConfig) (*Cell, error) { return core.New(cfg) }

// NewQueryEngine builds a query engine over cell for subject with the given
// access context.
func NewQueryEngine(cell *Cell, subject string, ctx AccessContext) *QueryEngine {
	return query.NewEngine(cell, subject, ctx)
}

// NewPairingSecret generates a pairing secret to install on two cells that
// want to exchange data securely.
func NewPairingSecret() (crypto.SymmetricKey, error) { return core.NewPairingSecret() }

// NewReplicaKey generates the sealing key shared by all catalog replicas of
// one user.
func NewReplicaKey() (crypto.SymmetricKey, error) { return crypto.NewSymmetricKey() }

// NewReplica creates a catalog replica named id (e.g. "alice/gateway") of
// userID's personal space over the given cloud service, with DefaultSyncShards
// replication shards. Every replica of one user must share the same key (see
// NewReplicaKey) and shard count.
func NewReplica(id, userID string, key crypto.SymmetricKey, svc CloudService) *Replica {
	return syncpkg.NewReplica(id, userID, key, svc, nil)
}

// NewReplicaShards creates a catalog replica with an explicit replication
// shard count.
func NewReplicaShards(id, userID string, key crypto.SymmetricKey, svc CloudService, shards int) *Replica {
	return syncpkg.NewReplicaShards(id, userID, key, svc, nil, shards)
}

// ReplicasEqual reports whether two replicas have converged to the same live
// state.
func ReplicasEqual(a, b *Replica) bool { return syncpkg.Equal(a, b) }

// NewMemoryCloud creates an in-process honest untrusted-infrastructure
// service, suitable for tests, examples and simulations. The store is
// sharded for concurrent fleets (see NewMemoryCloudShards to choose the
// shard count).
func NewMemoryCloud() *cloud.Memory { return cloud.NewMemory() }

// NewMemoryCloudShards creates an in-process honest cloud service with the
// given shard count; one shard reproduces the historical single-mutex store.
func NewMemoryCloudShards(shards int) *cloud.Memory { return cloud.NewMemoryShards(shards) }

// DurableCloud is the disk-backed provider: the same Service, batch and
// conditional-fetch contracts as the in-memory cloud, but every acknowledged
// write is covered by a group-committed write-ahead log and survives a
// process kill. Reopening a store replays the log, rebuilds its LSM runs and
// resumes serving (see OpenDurableCloud and DESIGN.md §8).
type DurableCloud = cloud.Durable

// DurableCloudOptions configure a disk-backed provider; the zero value uses
// the defaults (32 shards, fsync'd commits, and the read fast path on: a
// shared 16 MiB block cache plus ~10 bits/key per-run bloom filters, with
// background compactions bounded to two at a time).
type DurableCloudOptions = cloud.DurableOptions

// DurableCloudRecovery reports what OpenDurableCloud replayed and repaired.
type DurableCloudRecovery = cloud.DurableRecovery

// DurableEngineStats are the summed LSM-engine counters of a DurableCloud's
// shards — runs, lookups, and the read fast-path counters (bloom-filter
// skips, block-cache hits and misses, device reads). Exposed through
// DurableCloud.EngineStats and, per shard, DurableCloud.ShardStats.
type DurableEngineStats = storage.Stats

// OpenDurableCloud opens (creating if needed) a durable disk-backed cloud
// service rooted at dir, recovering any existing state: crash recovery
// replays the write-ahead logs and rebuilds run metadata, so the store
// resumes with every previously acknowledged write intact.
func OpenDurableCloud(dir string, opts DurableCloudOptions) (*DurableCloud, error) {
	return cloud.OpenDurable(dir, opts)
}

// DialCloud connects to a tccloud server over TCP and returns a CloudService.
func DialCloud(addr string) (CloudService, error) { return cloud.Dial(addr) }

// FramedCloudClient is the connection-multiplexed cloud client: one TCP
// connection carries any number of concurrent requests as length-prefixed,
// request-id-tagged frames, so batch operations cost one round-trip instead
// of one per blob. It implements the full CloudService, batch and
// conditional-fetch contracts and is safe for concurrent use by any number
// of goroutines (see DialFramedCloud and DESIGN.md §11.2).
type FramedCloudClient = cloud.FrameClient

// DialFramedCloud connects to a tccloud framed listener (its -framed-addr)
// and returns the multiplexed client. Call Hello on the client to bind the
// connection to a tenant namespace when the server defines tenants.
func DialFramedCloud(addr string) (*FramedCloudClient, error) { return cloud.DialFramed(addr) }

// CloudTenants is a multi-tenant front door over any cloud provider:
// per-tenant namespaces (isolated blob and mailbox name spaces) with
// per-tenant byte and operation-rate quotas (see NewCloudTenants,
// TenantQuota and DESIGN.md §11.3).
type CloudTenants = cloud.Tenants

// TenantQuota bounds one tenant: cumulative written bytes and a sustained
// operations-per-second rate with burst headroom. Zero fields are unlimited.
type TenantQuota = cloud.TenantQuota

// TenantCloudView is one tenant's view of a shared provider — the full
// CloudService, batch and conditional-fetch contracts, transparently
// namespaced and quota-charged (see CloudTenants.View).
type TenantCloudView = cloud.TenantView

// TenantUsage is a point-in-time snapshot of one tenant's consumption.
type TenantUsage = cloud.TenantUsage

// NewCloudTenants wraps inner with a tenant registry; define tenants with
// Define, then hand each tenant its View (or bind framed connections with
// FramedCloudClient.Hello).
func NewCloudTenants(inner CloudService) *CloudTenants { return cloud.NewTenants(inner) }

// CloudAdmission is the front door's overload valve: a weighted in-flight
// budget over writes. When the budget is exhausted — the signature of the
// durable store's group committer saturating — new writes are shed
// immediately with a typed retry-after error instead of queuing without
// bound (see NewCloudAdmission and DESIGN.md §11.4).
type CloudAdmission = cloud.Admission

// CloudAdmissionOptions configure the admission valve; the zero value uses
// the defaults.
type CloudAdmissionOptions = cloud.AdmissionOptions

// CloudAdmissionStats counts admitted and shed write weight.
type CloudAdmissionStats = cloud.AdmissionStats

// NewCloudAdmission wraps inner with admission control.
func NewCloudAdmission(inner CloudService, opts CloudAdmissionOptions) *CloudAdmission {
	return cloud.NewAdmission(inner, opts)
}

// ErrCloudOverloaded and ErrTenantQuotaExceeded are the typed backpressure
// sentinels of the front door; match with errors.Is. Both cross the framed
// wire intact, and both carry a retry hint in their concrete types
// (CloudOverloadError, CloudQuotaError — match with errors.As).
var (
	ErrCloudOverloaded     = cloud.ErrOverloaded
	ErrTenantQuotaExceeded = cloud.ErrQuotaExceeded
)

// ErrCloudWireVersion reports that the peer of a framed connection speaks
// another version of the frame payload codec (DESIGN.md §11.2); the
// connection is closed after it. Match with errors.Is.
var ErrCloudWireVersion = cloud.ErrWireVersion

// CloudOverloadError is the concrete shed error: it unwraps to
// ErrCloudOverloaded and carries the server's retry-after hint.
type CloudOverloadError = cloud.OverloadError

// CloudQuotaError is the concrete quota rejection: it unwraps to
// ErrTenantQuotaExceeded and names the tenant and exhausted resource.
type CloudQuotaError = cloud.QuotaError

// ReplicatedCloud stripes the full cloud contracts over N member providers —
// any mix of in-memory, durable and dialed TCP backends — with quorum writes,
// quorum reads with read repair, hinted handoff for members that go dark, and
// an anti-entropy pass that reconciles diverged members (see
// NewReplicatedCloud and DESIGN.md §9). Experiment E15 drills it: one of
// three providers killed mid-workload, zero acknowledged writes lost. A
// member convicted by the catalog audit can be quarantined (excluded from
// read quorums while writes keep fanning to it) and is re-admitted by the
// anti-entropy probe once it converges and re-verifies — experiment E17
// drills that path against drop/rollback/fork adversaries (DESIGN.md §12).
type ReplicatedCloud = cloud.Replicated

// ReplicatedCloudOptions configure a replicated cloud; the zero value derives
// majority quorums from the member count.
type ReplicatedCloudOptions = cloud.ReplicatedOptions

// ReplicatedRepairReport summarises one anti-entropy pass of a replicated
// cloud.
type ReplicatedRepairReport = cloud.RepairReport

// NewReplicatedCloud builds a replicated cloud service over the given member
// providers. Construction fails on an empty member list or a quorum outside
// [1, len(members)].
func NewReplicatedCloud(members []CloudService, opts ReplicatedCloudOptions) (*ReplicatedCloud, error) {
	return cloud.NewReplicated(members, opts)
}

// FaultyCloud wraps any cloud provider with deterministic fault injection —
// seeded per-operation error rates, latency spikes, full-outage and flap
// schedules, partition masks — so failure handling can be tested on demand
// (see NewFaultyCloud). It is how E15 kills a replicated member.
type FaultyCloud = cloud.Faulty

// FaultyCloudOptions parameterise the injected misbehaviour; the zero value
// injects nothing until the runtime switches flip.
type FaultyCloudOptions = cloud.FaultyOptions

// NewFaultyCloud wraps inner with the given fault schedule.
func NewFaultyCloud(inner CloudService, opts FaultyCloudOptions) *FaultyCloud {
	return cloud.NewFaulty(inner, opts)
}

// AdversaryCloud wraps any cloud provider with the paper's weakly-malicious
// provider: one that cannot break the cryptography but may silently drop
// acknowledged writes, serve rolled-back state under current version numbers,
// or fork divergent histories to different clients (see NewAdversaryCloud and
// DESIGN.md §12). The authenticated catalog convicts all three within one
// exchange — experiment E17 is the drill.
type AdversaryCloud = cloud.Adversary

// AdversaryCloudConfig parameterises the adversary; the zero value behaves
// honestly until SetMode flips it.
type AdversaryCloudConfig = cloud.AdversaryConfig

// AdversaryCloudMode selects the adversary's behaviour.
type AdversaryCloudMode = cloud.AdversaryMode

// Adversary behaviours (see AdversaryCloud).
const (
	AdversaryHonest   = cloud.Honest
	AdversaryDropping = cloud.Dropping
	AdversaryRollback = cloud.Rollback
	AdversaryFork     = cloud.Fork
)

// NewAdversaryCloud wraps inner with the given adversary configuration.
func NewAdversaryCloud(inner CloudService, cfg AdversaryCloudConfig) *AdversaryCloud {
	return cloud.NewAdversary(inner, cfg)
}

// Catalog-authentication verdicts: a replica's Sync/Pull (and the read-only
// CheckShardBlob audit) return errors matching these sentinels when the
// provider's served state betrays a rollback or a fork of the signed,
// epoch-countersigned shard roots.
var (
	ErrRollbackDetected = syncpkg.ErrRollbackDetected
	ErrForkDetected     = syncpkg.ErrForkDetected
)

// NewSeries creates an empty time series with a name and unit.
func NewSeries(name, unit string) *Series { return timeseries.NewSeries(name, unit) }

// IssueCredential signs an attribute credential (issuer side).
func IssueCredential(issuerID string, issuer *crypto.SigningKey, subjectID, attribute, value string,
	issuedAt, expiresAt time.Time) *Credential {
	return policy.IssueCredential(issuerID, issuer, subjectID, attribute, value, issuedAt, expiresAt)
}

// NewSigningKey generates an issuer signing key.
func NewSigningKey() (*crypto.SigningKey, error) { return crypto.NewSigningKey() }

// GenerateHousehold produces a synthetic 1 Hz household power trace with
// ground-truth appliance activations (see internal/sensor).
func GenerateHousehold(start time.Time, duration time.Duration, seed int64) (*sensor.HouseholdTrace, error) {
	cfg := sensor.DefaultHouseholdConfig(start, seed)
	cfg.Duration = duration
	return sensor.GenerateHousehold(cfg)
}

// GenerateTrip produces a synthetic GPS trip for the pay-as-you-drive
// scenario.
func GenerateTrip(id string, start time.Time, seed int64) (*sensor.Trip, error) {
	return sensor.GenerateTrip(id, sensor.DefaultTripConfig(start, seed))
}

// ComputeRoadPricing runs the road-pricing aggregate over a raw trip.
func ComputeRoadPricing(t *sensor.Trip) sensor.RoadPricingSummary {
	return sensor.ComputeRoadPricing(t, sensor.DefaultPricing())
}

// SecureSum runs a shared-commons secure aggregation over participant values.
func SecureSum(participants []commons.Participant, cloudAssisted bool, aggregators int) (*commons.AggregationResult, error) {
	proto := commons.PureSMC
	if cloudAssisted {
		proto = commons.CloudAssisted
	}
	return commons.SecureSum(participants, proto, aggregators)
}

// Participant is one cell contributing to a shared-commons computation.
type Participant = commons.Participant

// CommonsCommunity is a shared-commons membership: a name plus a group
// secret from which every member, aggregator and querier key of the
// distributed query plane is derived (see NewCommonsCommunity and
// DESIGN.md §13).
type CommonsCommunity = commons.Community

// CommonsSpec is a fleet-wide aggregate query: a document filter, an
// aggregate kind, the k-anonymity release threshold, the differential-
// privacy epsilon, the per-cell contribution clamp, the response deadline
// and the aggregator committee. It is sealed per cell and scattered into
// the fleet's commons mailboxes.
type CommonsSpec = commons.Spec

// CommonsFilter selects which documents of a cell a commons query covers.
type CommonsFilter = commons.Filter

// CommonsResult is a released (or suppressed) fleet aggregate with honest
// accounting: responded/declined/suppressed counts against the scatter
// total, the exact and noised sums, and the traffic the query cost.
type CommonsResult = commons.Result

// CommonsPending is an in-flight scattered query, consumed by
// CommonsCoordinator.Gather.
type CommonsPending = commons.Pending

// CommonsCoordinator is the querier side of the distributed commons plane:
// it scatters sealed query specs, gathers the cells' secret-shared answers,
// drives the aggregator committee to a consistent partial-total set, and
// releases the k-suppressed, Laplace-noised aggregate while charging the
// epsilon budget (see NewCommonsCoordinator).
type CommonsCoordinator = commons.Coordinator

// CommonsCoordinatorConfig configures a CommonsCoordinator.
type CommonsCoordinatorConfig = commons.CoordinatorConfig

// CommonsResponder is the cell side of the distributed commons plane: it
// polls the cell's commons mailbox, evaluates query specs locally, and
// answers with additive secret shares no single aggregator can invert.
type CommonsResponder = commons.Responder

// CommonsAggregator is one member of a query's aggregation committee: it
// opens only its own share of each cell's value and publishes partial
// totals over the committee-agreed contributor set.
type CommonsAggregator = commons.Aggregator

// CommonsEvalFunc evaluates one query spec against a cell's local data,
// returning (value, ok, err); ok=false declines without revealing why.
type CommonsEvalFunc = commons.EvalFunc

// Commons error sentinels: a malformed sealed payload, a coordinator whose
// cumulative epsilon budget is spent, and a gather whose aggregator
// committee could not complete before the deadline. Match with errors.Is.
var (
	ErrCommonsBadSpec          = commons.ErrBadSpec
	ErrCommonsBudgetExhausted  = commons.ErrBudgetExhausted
	ErrCommonsGatherIncomplete = commons.ErrGatherIncomplete
)

// NewCommonsKey generates a community group secret; every member of one
// community must share it.
func NewCommonsKey() (crypto.SymmetricKey, error) { return crypto.NewSymmetricKey() }

// NewCommonsCommunity names a shared-commons community over a group secret.
func NewCommonsCommunity(name string, key crypto.SymmetricKey) *CommonsCommunity {
	return commons.NewCommunity(name, key)
}

// NewCommonsCoordinator builds the querier side of a community's
// distributed query plane.
func NewCommonsCoordinator(cfg CommonsCoordinatorConfig) (*CommonsCoordinator, error) {
	return commons.NewCoordinator(cfg)
}

// NewCommonsResponder registers cell id as a community member answering
// commons queries with eval.
func NewCommonsResponder(id string, comm *CommonsCommunity, svc CloudService, eval CommonsEvalFunc) *CommonsResponder {
	return commons.NewResponder(id, comm, svc, eval)
}

// NewCommonsAggregator builds one committee member of a community.
func NewCommonsAggregator(id string, comm *CommonsCommunity, svc CloudService) *CommonsAggregator {
	return commons.NewAggregator(id, comm, svc)
}

// CommonsCellEvaluator answers commons queries from a real cell's sealed
// documents: the spec's filter and aggregate run through the planned,
// batched query pipeline under the cell's own policy gate, so a query the
// owner's rules deny is declined — and the querier cannot distinguish
// refusal from absence.
func CommonsCellEvaluator(cell *Cell, subject string, actx AccessContext) CommonsEvalFunc {
	return commons.CellEvaluator(cell, subject, actx)
}

// Fleet is a population of simulated cells cheap enough to scale to
// millions: one 4-byte sequence counter per cell at rest, with sealing keys
// and AEAD machinery shared fleet-wide (see NewFleet, RunFleetLoad and
// DESIGN.md §11.1). Experiment E14 drives a fleet against the multi-tenant
// framed front door.
type Fleet = sim.Fleet

// FleetLoad parameterises one open-loop run against a fleet: requests fire
// on a fixed arrival schedule and latency is measured from each request's
// scheduled arrival, so a slow server cannot hide its queueing delay
// (coordinated omission).
type FleetLoad = sim.FleetLoad

// FleetLoadResult is the outcome of one open-loop run: completed vs shed
// request counts, documents moved, and the latency distribution.
type FleetLoadResult = sim.FleetLoadResult

// FleetLatencyRecorder is a fixed-size lock-free log-linear latency
// histogram (~3% relative error) safe for concurrent recording.
type FleetLatencyRecorder = sim.LatencyRecorder

// NewFleet builds a fleet of n simulated cells with a deterministic sealing
// key derived from seed.
func NewFleet(n int, seed []byte) (*Fleet, error) { return sim.NewFleet(n, seed) }

// RunFleetLoad drives the fleet against one or more cloud clients — one per
// tenant when clients are framed per-tenant connections — with an open-loop
// schedule. Typed overload and quota rejections count as shed; any other
// error aborts the run.
func RunFleetLoad(f *Fleet, clients []CloudService, load FleetLoad) (*FleetLoadResult, error) {
	return sim.RunLoad(f, clients, load)
}

// RunExperiment runs one of the DESIGN.md experiments (e1..e18, fig1) with
// its default configuration and returns the result table.
func RunExperiment(id string) (*sim.Table, error) { return sim.Run(id) }

// ExperimentIDs lists the available experiment identifiers.
func ExperimentIDs() []string { return sim.ExperimentIDs() }

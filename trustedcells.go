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
// The facade re-exports what the examples and commands use: the Cell itself,
// the untrusted infrastructure (in-memory, TCP and the weakly-malicious
// adversary), the data model, policies and credentials, usage control,
// catalog replicas, trusted-source simulators, the shared-commons query
// plane, and the experiment harness. Quick start:
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
	"trustedcells/internal/sensor"
	"trustedcells/internal/sim"
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

// Document is the metadata of one item of the personal data space.
type Document = datamodel.Document

// Query is a metadata query over a cell's catalog.
type Query = datamodel.Query

// Rule is one access-control rule; Condition restricts when it applies;
// Resource selects the documents it covers; Action is its vocabulary;
// Credential is a signed attribute statement presented by a requester.
type (
	Rule       = policy.Rule
	Condition  = policy.Condition
	Resource   = policy.Resource
	Action     = policy.Action
	Credential = policy.Credential
)

// UsagePolicy is a usage-control (UCON) policy attached to a document.
type UsagePolicy = ucon.Policy

// CloudService is the untrusted infrastructure interface, batched and
// conditional fetches included (PutBlobs, GetBlobs, GetBlobsIf).
type CloudService = cloud.Service

// Replica is one cell's replica of the user's metadata catalog, synchronized
// across the user's trusted cells through the untrusted cloud by the sharded
// delta anti-entropy protocol (see Cell.AttachReplica and Cell.SyncCatalog).
// Every pushed shard carries its writer's signed attestation, and a shard
// without one is refused.
type Replica = syncpkg.Replica

// Hardware classes of the devices hosting cells.
const (
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
	ActionShare     = policy.ActionShare
)

// Time-series granularities and aggregate kinds.
const (
	GranularityMinute = timeseries.GranularityMinute
	Granularity15Min  = timeseries.Granularity15Min
	GranularityHour   = timeseries.GranularityHour
	GranularityDay    = timeseries.GranularityDay
	AggregateMean     = timeseries.AggregateMean
	AggregateSum      = timeseries.AggregateSum
)

// NewCell creates, provisions and unlocks a trusted cell.
func NewCell(cfg CellConfig) (*Cell, error) { return core.New(cfg) }

// NewPairingSecret generates a pairing secret to install on two cells that
// want to exchange data securely.
func NewPairingSecret() (crypto.SymmetricKey, error) { return core.NewPairingSecret() }

// NewReplicaKey generates the sealing key shared by all catalog replicas of
// one user.
func NewReplicaKey() (crypto.SymmetricKey, error) { return crypto.NewSymmetricKey() }

// NewReplica creates a catalog replica named id (e.g. "alice/gateway") of
// userID's personal space over the given cloud service, with the default
// number of replication shards. Every replica of one user must share the same key (see
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
// service, suitable for tests, examples and simulations.
func NewMemoryCloud() *cloud.Memory { return cloud.NewMemory() }

// FramedCloudClient is the connection-multiplexed cloud client: one TCP
// connection carries any number of concurrent requests as length-prefixed,
// request-id-tagged frames, so batch operations cost one round-trip instead
// of one per blob. It implements CloudService and is safe for concurrent use
// by any number of goroutines (see DialCloud and DESIGN.md §11.2). After a
// dropped connection its next call redials.
type FramedCloudClient = cloud.FrameClient

// DialCloud connects to a tccloud server — its -addr, or its -framed-addr
// front door — and returns the multiplexed client. Call Hello on the client
// to bind it to a tenant namespace when the server defines tenants.
func DialCloud(addr string) (*FramedCloudClient, error) { return cloud.DialFramed(addr) }

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

// AdversaryRollback is the adversary behaviour that serves rolled-back
// state under current version numbers.
const AdversaryRollback = cloud.Rollback

// NewAdversaryCloud wraps inner with the given adversary configuration.
func NewAdversaryCloud(inner CloudService, cfg AdversaryCloudConfig) *AdversaryCloud {
	return cloud.NewAdversary(inner, cfg)
}

// ErrRollbackDetected is the catalog-authentication verdict a replica's
// Sync/Pull returns when the provider serves a rolled-back copy of the
// signed, epoch-countersigned shard roots. Match with errors.Is.
var ErrRollbackDetected = syncpkg.ErrRollbackDetected

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

// RunExperiment runs one of the DESIGN.md experiments (e1..e18, fig1) with
// its default configuration and returns the result table.
func RunExperiment(id string) (*sim.Table, error) { return sim.Run(id) }

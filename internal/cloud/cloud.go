// Package cloud simulates the untrusted infrastructure of the trusted-cells
// architecture: a highly available blob store holding the encrypted personal
// vaults, and mailboxes providing asynchronous communication between cells.
//
// By definition the infrastructure "does not benefit from the hardware
// security of the trusted cell and is therefore considered untrusted"; the
// threat model is a weakly-malicious adversary that may try to read, tamper
// with, replay or drop data as long as it cannot be convicted. The package
// therefore lets tests and experiments inject adversarial behaviours and
// verifies that cells detect every integrity violation.
//
// The in-memory implementation is sharded (see Memory) so that a fleet of
// concurrent cells does not serialize behind a single lock, and Service
// carries batch calls (PutBlobs, GetBlobs, GetBlobsIf) that amortize one
// network round-trip over many blobs. DESIGN.md documents both; experiment
// E9 measures them. The batch calls are the only blob paths: PutBlob and
// GetBlob are one-element batches (putOne, getOne), so a single call and its
// batch of one cannot disagree.
//
// The stores implement Service method by method: Memory in RAM, Durable on
// disk, and Replicated, which stripes the same contract over N member
// backends with quorum writes, read repair, hinted handoff and anti-entropy,
// so the fleet keeps answering while providers fail (DESIGN.md §9,
// experiment E15). Everything else is a layer over a Service and supplies
// one hook over the request the wire already carries (rpcRequest): the
// shared layer type builds that request from each Service call, and dispatch
// maps it back onto the next Service's method. The layers are FrameClient
// (the hook is one round trip over TCP), Admission (load shedding), the
// tenant views of Tenants (namespaces and quotas), Adversary and its client
// views (the Byzantine provider) and Faulty — deterministic fault injection:
// seeded error rates, latency, outage/flap schedules, partition masks,
// silent corruption — so that failure handling is tested on demand rather
// than observed by luck. Faulty is the package's only
// fault injector: the stores themselves never fail on purpose. In process an
// error keeps its identity through every layer; only the wire serializes it
// (applyRespError) and rebuilds it on the other side (respError).
package cloud

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by the service.
var (
	// ErrBlobNotFound reports that no blob is stored under the requested name.
	ErrBlobNotFound = errors.New("cloud: blob not found")
	// ErrUnavailable reports a transient service failure; the caller may retry.
	ErrUnavailable = errors.New("cloud: service temporarily unavailable")
	// ErrMailboxEmpty reports that a mailbox has no pending messages.
	ErrMailboxEmpty = errors.New("cloud: mailbox empty")
	// ErrOverloaded is the sentinel behind OverloadError: the front door shed
	// the request instead of queuing it. Match with errors.Is and back off for
	// the OverloadError's RetryAfter before retrying.
	ErrOverloaded = errors.New("cloud: overloaded")
	// ErrQuotaExceeded is the sentinel behind QuotaError: a tenant crossed its
	// byte or operation budget. Match with errors.Is.
	ErrQuotaExceeded = errors.New("cloud: tenant quota exceeded")
	// ErrNoTenant reports a request on a front-door connection that has not
	// bound a tenant: a FrameServer with tenants refuses every request until
	// the connection's hello succeeds (see FrameServerOptions.Tenants).
	ErrNoTenant = errors.New("cloud: connection has no tenant; say hello first")
)

// OverloadError is the typed shedding error of the admission controller (see
// Admission): the provider's write path — in practice the commit journal's
// group committer — is saturated, and rather than queuing the request
// unboundedly the front door rejected it immediately. RetryAfter is the
// server's backoff hint. It unwraps to ErrOverloaded and travels across the
// framed wire protocol intact (see respError).
type OverloadError struct {
	// RetryAfter is how long the client should wait before retrying.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("cloud: overloaded; retry after %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// QuotaError is the typed rejection a TenantView returns when an operation
// would cross the tenant's quota. Resource names the exhausted budget:
// "bytes" (the cumulative written-byte budget — not retryable, the tenant
// must delete data or be re-provisioned) or "ops" (the sustained
// operations/sec token bucket — retryable after RetryAfter). It unwraps to
// ErrQuotaExceeded and travels across the framed wire protocol intact.
type QuotaError struct {
	// Tenant is the tenant whose budget was exhausted.
	Tenant string
	// Resource is the exhausted budget: "bytes" or "ops".
	Resource string
	// RetryAfter is the backoff after which an "ops" rejection would admit
	// the same request; zero for "bytes" rejections.
	RetryAfter time.Duration
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("cloud: tenant %q over %s quota", e.Tenant, e.Resource)
}

// Unwrap makes errors.Is(err, ErrQuotaExceeded) true.
func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// Blob is a named, versioned, opaque byte string. Cells only ever upload
// sealed envelopes, so the cloud sees ciphertext.
type Blob struct {
	Name    string
	Version int
	Data    []byte
	Stored  time.Time
}

// BlobPut is one named payload of a batched upload.
type BlobPut struct {
	Name string
	Data []byte
}

// CondGet names one blob of a conditional batched fetch: the blob's data is
// wanted only if its stored version is strictly greater than IfNewer. Passing
// IfNewer 0 fetches unconditionally.
type CondGet struct {
	Name    string
	IfNewer int
}

// Message is one mailbox item exchanged between cells through the cloud.
type Message struct {
	ID   string
	From string
	To   string
	Kind string
	Body []byte
	Sent time.Time
	Seq  uint64
}

// Service is the API the untrusted infrastructure offers to cells.
type Service interface {
	// PutBlob stores data under name and returns the new version.
	//
	// Implementations must not retain data past the call: callers recycle
	// the sealed buffers through pools the moment a put returns (the
	// in-memory store copies, the wire client writes to the socket
	// synchronously — see DESIGN.md §7.2). The same contract applies to
	// PutBlobs.
	PutBlob(name string, data []byte) (int, error)
	// GetBlob returns the latest version of the blob.
	GetBlob(name string) (Blob, error)
	// DeleteBlob removes a blob.
	DeleteBlob(name string) error
	// ListBlobs returns the names with the given prefix, sorted.
	ListBlobs(prefix string) ([]string, error)
	// PutBlobs stores every blob and returns the new version of each, in
	// argument order. The whole batch shares one round-trip.
	PutBlobs(puts []BlobPut) ([]int, error)
	// GetBlobs returns the latest version of each named blob in argument
	// order. Missing names yield a zero Blob (Version 0) at their position;
	// only service-level failures return an error.
	GetBlobs(names []string) ([]Blob, error)
	// GetBlobsIf is the conditional batched fetch that makes delta
	// synchronization cheap (a batched If-None-Match): one Blob per request,
	// in argument order. A blob whose stored version is still <= IfNewer
	// comes back with its current Version but nil Data; a missing name
	// yields a zero Blob (Version 0).
	GetBlobsIf(gets []CondGet) ([]Blob, error)
	// Send delivers a message to the recipient's mailbox.
	Send(msg Message) error
	// Receive pops up to max pending messages for the recipient.
	Receive(recipient string, max int) ([]Message, error)
	// Stats returns service-side counters.
	Stats() Stats
}

// Stats counts the operations the infrastructure served, plus the adversarial
// actions it silently performed. Experiments use it to report detection
// rates.
type Stats struct {
	Puts, Gets, Deletes, Lists int64
	Sends, Receives            int64
	BytesStored                int64
	TamperedBlobs              int64
	ReplayedBlobs              int64
	DroppedBlobs               int64
	DroppedMessages            int64
	ObservedBlobs              int64
	RolledBackBlobs            int64
	ForkedBlobs                int64
}

// AdversaryMode selects how the infrastructure misbehaves.
type AdversaryMode int

// Adversary modes.
const (
	// Honest follows the protocol exactly.
	Honest AdversaryMode = iota
	// HonestButCurious follows the protocol but records everything it sees
	// (the confidentiality experiments check that what it sees is sealed).
	HonestButCurious
	// Tampering flips bytes in stored blobs with probability TamperRate.
	Tampering
	// Replaying returns stale versions of updated blobs with probability
	// ReplayRate.
	Replaying
	// Dropping silently loses blobs and messages with probability DropRate.
	Dropping
	// Rollback serves stale blob contents under the *current* version number
	// with probability RollbackRate, so plain version checks pass and only an
	// authenticated freshness protocol (signed Merkle roots + monotonic
	// epochs, see the sync package) can convict the provider.
	Rollback
	// Fork serves divergent states to different clients: once active, writes
	// are diverted into per-client branches (see Adversary.ClientView) and
	// every client observes only its own branch — the equivocation attack of
	// fork-consistency literature. Clients without a branch of their own are
	// pinned to the fork-point state.
	Fork
)

// String names the mode.
func (m AdversaryMode) String() string {
	switch m {
	case Honest:
		return "honest"
	case HonestButCurious:
		return "honest-but-curious"
	case Tampering:
		return "tampering"
	case Replaying:
		return "replaying"
	case Dropping:
		return "dropping"
	case Rollback:
		return "rollback"
	case Fork:
		return "fork"
	default:
		return fmt.Sprintf("adversary(%d)", int(m))
	}
}

// AdversaryConfig parameterises the misbehaviour.
type AdversaryConfig struct {
	Mode       AdversaryMode
	TamperRate float64
	ReplayRate float64
	DropRate   float64
	// RollbackRate is the probability that a read of an updated blob is
	// answered with stale contents under the current version number.
	RollbackRate float64
	// Seed makes the adversary deterministic for reproducible experiments.
	Seed int64
}

// putOne is PutBlob for every implementation: a batch of one, so a single
// put is charged, counted, faulted and versioned exactly like a batch.
func putOne(svc Service, name string, data []byte) (int, error) {
	versions, err := svc.PutBlobs([]BlobPut{{Name: name, Data: data}})
	if err != nil {
		return 0, err
	}
	return versions[0], nil
}

// getOne is GetBlob for every implementation: a batch of one, whose zero
// Blob (Version 0) is ErrBlobNotFound.
func getOne(svc Service, name string) (Blob, error) {
	blobs, err := svc.GetBlobs([]string{name})
	if err != nil {
		return Blob{}, err
	}
	if blobs[0].Version == 0 {
		return Blob{}, ErrBlobNotFound
	}
	return blobs[0], nil
}

// unconditional turns a batched read into the conditional read that ships
// every blob: IfNewer 0 for each name.
func unconditional(names []string) []CondGet {
	gets := make([]CondGet, len(names))
	for i, name := range names {
		gets[i].Name = name
	}
	return gets
}

// layer implements Service over one request hook: each method builds the
// rpcRequest the wire would carry, hands it to the hook and reads its answer
// out of the rpcResponse. Every layer of the package — FrameClient,
// Admission, TenantView, Faulty, Adversary, AdversaryView — embeds one and
// supplies only the hook; dispatch is the mapping back from a request to the
// next Service's method. Errors pass through as the hook returns them.
type layer struct {
	hook func(rpcRequest) (rpcResponse, error)
}

// PutBlob implements Service: a batch of one.
func (l layer) PutBlob(name string, data []byte) (int, error) { return putOne(l, name, data) }

// GetBlob implements Service: a batch of one.
func (l layer) GetBlob(name string) (Blob, error) { return getOne(l, name) }

// DeleteBlob implements Service.
func (l layer) DeleteBlob(name string) error {
	_, err := l.hook(rpcRequest{Op: "delete", Name: name})
	return err
}

// ListBlobs implements Service.
func (l layer) ListBlobs(prefix string) ([]string, error) {
	resp, err := l.hook(rpcRequest{Op: "list", Prefix: prefix})
	return resp.Names, err
}

// PutBlobs implements Service.
func (l layer) PutBlobs(puts []BlobPut) ([]int, error) {
	resp, err := l.hook(rpcRequest{Op: "putb", Puts: puts})
	return oneEach(resp.Versions, err, "batch put", len(puts))
}

// GetBlobs implements Service.
func (l layer) GetBlobs(names []string) ([]Blob, error) {
	resp, err := l.hook(rpcRequest{Op: "getb", Names: names})
	return oneEach(resp.Blobs, err, "batch get", len(names))
}

// GetBlobsIf implements Service.
func (l layer) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	resp, err := l.hook(rpcRequest{Op: "getc", Gets: gets})
	return oneEach(resp.Blobs, err, "conditional batch get", len(gets))
}

// Send implements Service.
func (l layer) Send(msg Message) error {
	_, err := l.hook(rpcRequest{Op: "send", Message: msg})
	return err
}

// Receive implements Service.
func (l layer) Receive(recipient string, max int) ([]Message, error) {
	resp, err := l.hook(rpcRequest{Op: "receive", Recipient: recipient, Max: max})
	return resp.Messages, err
}

// Stats implements Service; a failed call reads as zero counters.
func (l layer) Stats() Stats {
	resp, err := l.hook(rpcRequest{Op: "stats"})
	if err != nil || resp.Stats == nil {
		return Stats{}
	}
	return *resp.Stats
}

// oneEach returns a batch's results if the call succeeded with one result
// per argument, and an error otherwise. Whatever is below a layer may be an
// untrusted provider: positional callers must never get a slice whose length
// it chose.
func oneEach[T any](results []T, err error, what string, args int) ([]T, error) {
	if err == nil && len(results) != args {
		err = fmt.Errorf("cloud: %s: %d results for %d arguments", what, len(results), args)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// dispatch is the one mapping from a request to a Service method: it runs
// req against svc and answers with the results and the method's own error.
// A layer's hook calls it to reach the Service below; FrameServer calls it
// and serializes the error with applyRespError.
func dispatch(svc Service, req rpcRequest) (rpcResponse, error) {
	var resp rpcResponse
	var err error
	switch req.Op {
	case "delete":
		err = svc.DeleteBlob(req.Name)
	case "list":
		resp.Names, err = svc.ListBlobs(req.Prefix)
	case "putb":
		resp.Versions, err = svc.PutBlobs(req.Puts)
	case "getb":
		resp.Blobs, err = svc.GetBlobs(req.Names)
	case "getc":
		resp.Blobs, err = svc.GetBlobsIf(req.Gets)
	case "send":
		err = svc.Send(req.Message)
	case "receive":
		resp.Messages, err = svc.Receive(req.Recipient, req.Max)
	case "stats":
		st := svc.Stats()
		resp.Stats = &st
	default:
		err = fmt.Errorf("cloud: unknown op %q", req.Op)
	}
	return resp, err
}

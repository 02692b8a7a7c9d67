package cloud

// This file adds multi-tenancy on top of any single Service: one provider
// process serves many isolated customers ("tenants"), each seeing its own
// blob and mailbox namespace and each held to a byte and an operation
// budget. Isolation is by name rewriting — a tenant's blob "vault/1" is
// stored as "t/<tenant>/vault/1", its mailboxes likewise — so every backend
// (memory, durable, replicated) is multi-tenant for free and the FNV shard
// routing keeps spreading tenants across shards. DESIGN.md §11.3 documents
// the model; the quota policy is:
//
//   - bytes: a cumulative written-byte budget. Charged on every PutBlob /
//     PutBlobs / Send; never refunded on delete. This is an accounting
//     quota, not a live-usage quota: it avoids a read-before-write on the
//     hot path and matches how providers bill ingress. Exhaustion is
//     permanent until the tenant is re-provisioned.
//   - ops: a token bucket refilled at OpsPerSec with capacity Burst,
//     charging one token per operation and len(batch) per batch.
//     Exhaustion is transient; the QuotaError's RetryAfter says when the
//     bucket will cover the rejected request again.
//
// Both rejections happen before the inner Service is touched, so a tenant
// over budget costs the provider almost nothing.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// TenantQuota is the budget a tenant is provisioned with. Zero fields mean
// unlimited.
type TenantQuota struct {
	// MaxBytes caps the cumulative bytes written (blob payloads and message
	// bodies). Deletes do not refund the budget; see the package notes on
	// accounting quotas.
	MaxBytes int64
	// OpsPerSec is the sustained operation rate; a batch of N blobs counts
	// as N operations.
	OpsPerSec float64
	// Burst is the token-bucket capacity. Zero defaults to one second of
	// OpsPerSec (minimum 1), allowing short bursts at line rate.
	Burst int
}

// Tenants is a registry of tenant namespaces sharing one inner Service. It
// is safe for concurrent use: Define and View may race with in-flight
// tenant operations. The registry holds only quota state — per-tenant data
// lives in the inner Service under the "t/<tenant>/" prefix.
type Tenants struct {
	inner Service
	now   func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// tenantState is the mutable budget of one tenant.
type tenantState struct {
	name  string
	quota TenantQuota

	mu           sync.Mutex
	bytesWritten int64
	tokens       float64
	last         time.Time
	admitted     int64
	rejected     int64
}

// TenantUsage is a point-in-time snapshot of one tenant's consumption.
type TenantUsage struct {
	// BytesWritten is the cumulative bytes charged against MaxBytes.
	BytesWritten int64
	// Admitted and Rejected count operations (batch items count
	// individually) that passed or failed the quota check.
	Admitted, Rejected int64
}

// NewTenants builds a registry multiplexing inner across tenant namespaces.
func NewTenants(inner Service) *Tenants {
	return &Tenants{
		inner:   inner,
		now:     time.Now,
		tenants: make(map[string]*tenantState),
	}
}

// Define provisions (or re-provisions) a tenant with the given quota.
// Re-defining an existing tenant replaces its quota but keeps its usage
// counters, so operators can raise a budget without resetting accounting.
// Tenant names must not contain '/', which delimits the namespace prefix.
func (t *Tenants) Define(name string, quota TenantQuota) error {
	if name == "" || strings.Contains(name, "/") {
		return fmt.Errorf("cloud: invalid tenant name %q", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.tenants[name]; ok {
		st.mu.Lock()
		st.quota = quota
		st.mu.Unlock()
		return nil
	}
	t.tenants[name] = &tenantState{name: name, quota: quota}
	return nil
}

// View returns the tenant's namespaced Service. The view is safe for
// concurrent use; any number of connections may share one view.
func (t *Tenants) View(name string) (*TenantView, error) {
	t.mu.Lock()
	st, ok := t.tenants[name]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cloud: unknown tenant %q", name)
	}
	return &TenantView{reg: t, st: st, prefix: "t/" + name + "/"}, nil
}

// Names returns the defined tenant names, sorted.
func (t *Tenants) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Usage returns the tenant's consumption snapshot; ok is false for unknown
// tenants.
func (t *Tenants) Usage(name string) (TenantUsage, bool) {
	t.mu.Lock()
	st, ok := t.tenants[name]
	t.mu.Unlock()
	if !ok {
		return TenantUsage{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return TenantUsage{
		BytesWritten: st.bytesWritten,
		Admitted:     st.admitted,
		Rejected:     st.rejected,
	}, true
}

// admit charges ops tokens and bytes against the budget atomically: either
// both are charged or neither. now is injected for tests.
func (st *tenantState) admit(ops int, bytes int64, now time.Time) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	q := st.quota
	if q.MaxBytes > 0 && st.bytesWritten+bytes > q.MaxBytes {
		st.rejected += int64(ops)
		return &QuotaError{Tenant: st.name, Resource: "bytes"}
	}
	if q.OpsPerSec > 0 {
		burst := q.Burst
		if burst <= 0 {
			burst = int(q.OpsPerSec)
			if burst < 1 {
				burst = 1
			}
		}
		if st.last.IsZero() {
			st.last = now
			st.tokens = float64(burst)
		}
		if elapsed := now.Sub(st.last).Seconds(); elapsed > 0 {
			st.tokens = min(float64(burst), st.tokens+elapsed*q.OpsPerSec)
			st.last = now
		}
		if st.tokens < float64(ops) {
			st.rejected += int64(ops)
			wait := (float64(ops) - st.tokens) / q.OpsPerSec
			return &QuotaError{
				Tenant:     st.name,
				Resource:   "ops",
				RetryAfter: time.Duration(wait * float64(time.Second)),
			}
		}
		st.tokens -= float64(ops)
	}
	st.bytesWritten += bytes
	st.admitted += int64(ops)
	return nil
}

// TenantView is one tenant's window onto the shared provider: a Service
// whose names live under "t/<tenant>/" and whose writes are charged against
// the tenant's quota. Views are stateless handles over the registry's
// shared tenant record — concurrent use, including across connections, is
// safe, and quota accounting stays coherent because it lives in the record,
// not the view.
type TenantView struct {
	reg    *Tenants
	st     *tenantState
	prefix string // "t/<tenant>/", built once: every name of every batch takes it
}

// Tenant returns the tenant name the view is bound to.
func (v *TenantView) Tenant() string { return v.st.name }

// PutBlob implements Service: a batch of one, charging 1 op and len(data)
// bytes.
func (v *TenantView) PutBlob(name string, data []byte) (int, error) { return putOne(v, name, data) }

// GetBlob implements Service: a batch of one; reads charge 1 op and no
// bytes.
func (v *TenantView) GetBlob(name string) (Blob, error) { return getOne(v, name) }

// DeleteBlob implements Service. Deleting does not refund the byte budget.
func (v *TenantView) DeleteBlob(name string) error {
	if err := v.st.admit(1, 0, v.reg.now()); err != nil {
		return err
	}
	return v.reg.inner.DeleteBlob(v.prefix + name)
}

// ListBlobs implements Service, listing only this tenant's names (returned
// without the namespace prefix).
func (v *TenantView) ListBlobs(prefix string) ([]string, error) {
	if err := v.st.admit(1, 0, v.reg.now()); err != nil {
		return nil, err
	}
	names, err := v.reg.inner.ListBlobs(v.prefix + prefix)
	if err != nil {
		return nil, err
	}
	for i := range names {
		names[i] = strings.TrimPrefix(names[i], v.prefix)
	}
	return names, nil
}

// Send implements Service, delivering to the recipient's mailbox inside the
// tenant namespace and charging len(body) bytes.
func (v *TenantView) Send(msg Message) error {
	if err := v.st.admit(1, int64(len(msg.Body)), v.reg.now()); err != nil {
		return err
	}
	msg.To = v.prefix + msg.To
	return v.reg.inner.Send(msg)
}

// Receive implements Service, popping from the tenant's namespaced mailbox.
func (v *TenantView) Receive(recipient string, max int) ([]Message, error) {
	if err := v.st.admit(1, 0, v.reg.now()); err != nil {
		return nil, err
	}
	msgs, err := v.reg.inner.Receive(v.prefix+recipient, max)
	if err != nil {
		return nil, err
	}
	for i := range msgs {
		msgs[i].To = strings.TrimPrefix(msgs[i].To, v.prefix)
	}
	return msgs, nil
}

// Stats implements Service. Counters are provider-global, not per-tenant —
// use Tenants.Usage for per-tenant accounting.
func (v *TenantView) Stats() Stats { return v.reg.inner.Stats() }

// PutBlobs implements Service: the batch charges len(puts) ops plus
// the summed payload bytes up front, then rides the inner batch fast path.
func (v *TenantView) PutBlobs(puts []BlobPut) ([]int, error) {
	var bytes int64
	for _, p := range puts {
		bytes += int64(len(p.Data))
	}
	if err := v.st.admit(max(1, len(puts)), bytes, v.reg.now()); err != nil {
		return nil, err
	}
	renamed := make([]BlobPut, len(puts))
	for i, p := range puts {
		renamed[i] = BlobPut{Name: v.prefix + p.Name, Data: p.Data}
	}
	return v.reg.inner.PutBlobs(renamed)
}

// GetBlobs implements Service, charging len(names) ops.
func (v *TenantView) GetBlobs(names []string) ([]Blob, error) {
	if err := v.st.admit(max(1, len(names)), 0, v.reg.now()); err != nil {
		return nil, err
	}
	renamed := make([]string, len(names))
	for i, name := range names {
		renamed[i] = v.prefix + name
	}
	return v.trimmed(v.reg.inner.GetBlobs(renamed))
}

// GetBlobsIf implements Service, charging len(gets) ops.
func (v *TenantView) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	if err := v.st.admit(max(1, len(gets)), 0, v.reg.now()); err != nil {
		return nil, err
	}
	renamed := make([]CondGet, len(gets))
	for i, g := range gets {
		renamed[i] = CondGet{Name: v.prefix + g.Name, IfNewer: g.IfNewer}
	}
	return v.trimmed(v.reg.inner.GetBlobsIf(renamed))
}

// trimmed strips the namespace prefix from the names of a successful read.
func (v *TenantView) trimmed(blobs []Blob, err error) ([]Blob, error) {
	if err != nil {
		return nil, err
	}
	for i := range blobs {
		blobs[i].Name = strings.TrimPrefix(blobs[i].Name, v.prefix)
	}
	return blobs, nil
}

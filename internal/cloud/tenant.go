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
	v := &TenantView{reg: t, st: st, prefix: "t/" + name + "/"}
	v.layer = layer{v.serve}
	return v, nil
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
	layer // every Service method runs through serve

	reg    *Tenants
	st     *tenantState
	prefix string // "t/<tenant>/", built once: every name of every batch takes it
}

// Tenant returns the tenant name the view is bound to.
func (v *TenantView) Tenant() string { return v.st.name }

// serve is the view's hook. It charges the call against the tenant's quota
// before the inner Service is touched — one op per name (at least one per
// call) plus the bytes the call writes; Stats is provider-global and
// uncharged (Tenants.Usage holds per-tenant accounting) — then moves every
// name into the tenant's namespace and the answer's names back out of it.
func (v *TenantView) serve(req rpcRequest) (rpcResponse, error) {
	if req.Op == "stats" {
		return dispatch(v.reg.inner, req)
	}
	bytes := int64(len(req.Message.Body))
	for _, p := range req.Puts {
		bytes += int64(len(p.Data))
	}
	if err := v.st.admit(max(1, len(req.Puts)+len(req.Names)+len(req.Gets)), bytes, v.reg.now()); err != nil {
		return rpcResponse{}, err
	}
	switch req.Op {
	case "delete":
		req.Name = v.prefix + req.Name
	case "list":
		req.Prefix = v.prefix + req.Prefix
	case "send":
		req.Message.To = v.prefix + req.Message.To
	case "receive":
		req.Recipient = v.prefix + req.Recipient
	case "putb":
		puts := make([]BlobPut, len(req.Puts))
		for i, p := range req.Puts {
			puts[i] = BlobPut{Name: v.prefix + p.Name, Data: p.Data}
		}
		req.Puts = puts
	case "getb":
		names := make([]string, len(req.Names))
		for i, name := range req.Names {
			names[i] = v.prefix + name
		}
		req.Names = names
	case "getc":
		gets := make([]CondGet, len(req.Gets))
		for i, g := range req.Gets {
			gets[i] = CondGet{Name: v.prefix + g.Name, IfNewer: g.IfNewer}
		}
		req.Gets = gets
	}
	resp, err := dispatch(v.reg.inner, req)
	if err != nil {
		return rpcResponse{}, err
	}
	for i := range resp.Names {
		resp.Names[i] = strings.TrimPrefix(resp.Names[i], v.prefix)
	}
	for i := range resp.Blobs {
		resp.Blobs[i].Name = strings.TrimPrefix(resp.Blobs[i].Name, v.prefix)
	}
	for i := range resp.Messages {
		resp.Messages[i].To = strings.TrimPrefix(resp.Messages[i].To, v.prefix)
	}
	return resp, nil
}

// Package baseline implements the centralized comparator the introduction of
// the paper argues against: a cloud-hosted personal data vault where one
// provider stores every user's data and enforces privacy policies in server
// code. It exists so experiments can quantify the two intrinsic weaknesses
// the paper attributes to centralized solutions: exposure to sophisticated
// attacks whose cost-benefit is high on a centralized database (one breach
// exposes everyone), and exposure to unilateral privacy-policy changes by the
// provider.
package baseline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcells/internal/crypto"
	"trustedcells/internal/policy"
)

// Errors returned by the server.
var (
	ErrDenied    = errors.New("baseline: access denied")
	ErrNoSuchDoc = errors.New("baseline: unknown document")
)

// Record is one stored personal document.
type Record struct {
	DocID   string
	Owner   string
	Type    string
	Payload []byte
	Created time.Time
}

// CentralVault is the centralized personal data service. Data is encrypted at
// rest under a single provider-held master key (the standard server-side
// encryption model): enough against a stolen disk, useless against a
// compromise of the provider itself, which is exactly the asymmetry the
// trusted-cells architecture removes.
type CentralVault struct {
	mu        sync.Mutex
	masterKey crypto.SymmetricKey
	records   map[string]map[string]Record // owner -> docID -> record (sealed payloads)
	policies  map[string]*policy.Set       // owner -> policy enforced in server code
	// marketingOverride models a unilateral provider policy change: when set,
	// the provider grants itself read access to every record for "service
	// improvement" regardless of user policies.
	marketingOverride bool
}

// NewCentralVault creates an empty centralized vault.
func NewCentralVault() (*CentralVault, error) {
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		return nil, err
	}
	return &CentralVault{
		masterKey: key,
		records:   make(map[string]map[string]Record),
		policies:  make(map[string]*policy.Set),
	}, nil
}

// Store saves a user's document. The provider seals it under its own master
// key.
func (v *CentralVault) Store(owner, docID, docType string, payload []byte, created time.Time) error {
	sealed, err := crypto.Seal(v.masterKey, payload, []byte("central:"+owner+":"+docID))
	if err != nil {
		return fmt.Errorf("baseline: store: %w", err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.records[owner] == nil {
		v.records[owner] = make(map[string]Record)
	}
	v.records[owner][docID] = Record{DocID: docID, Owner: owner, Type: docType, Payload: sealed, Created: created}
	return nil
}

// SetPolicy installs the user's access policy, enforced by provider code.
func (v *CentralVault) SetPolicy(owner string, set *policy.Set) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.policies[owner] = set
}

// EnableMarketingOverride flips the provider-side policy change.
func (v *CentralVault) EnableMarketingOverride() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.marketingOverride = true
}

// Read returns a document if the user's policy (or the provider override)
// allows it.
func (v *CentralVault) Read(owner, docID, subjectID string, now time.Time) ([]byte, error) {
	v.mu.Lock()
	rec, ok := v.records[owner][docID]
	set := v.policies[owner]
	override := v.marketingOverride
	v.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchDoc
	}
	allowed := override && subjectID == "provider-analytics"
	if !allowed && set != nil {
		d := set.Evaluate(policy.Request{
			Subject:  policy.Subject{ID: subjectID},
			Action:   policy.ActionRead,
			Resource: policy.Resource{DocumentID: docID, Type: rec.Type},
			Context:  policy.Context{Time: now},
		})
		allowed = d.Allowed
	}
	if !allowed {
		return nil, ErrDenied
	}
	plain, _, err := crypto.Open(v.masterKey, rec.Payload)
	if err != nil {
		return nil, fmt.Errorf("baseline: read: %w", err)
	}
	return plain, nil
}

// BreachResult summarises what an attacker obtains from a compromise.
type BreachResult struct {
	UsersExposed   int
	RecordsExposed int
	// PlaintextRecovered reports whether the attacker could actually decrypt
	// what it exfiltrated.
	PlaintextRecovered bool
}

// SimulateServerBreach models a full compromise of the provider: the attacker
// obtains the stored ciphertexts and the provider's master key (it lives in
// the same administrative domain), so every user's data is exposed. This is
// the "class attack" the paper's threat analysis highlights for centralized
// designs.
func (v *CentralVault) SimulateServerBreach() BreachResult {
	v.mu.Lock()
	defer v.mu.Unlock()
	res := BreachResult{UsersExposed: len(v.records), PlaintextRecovered: true}
	for _, docs := range v.records {
		res.RecordsExposed += len(docs)
	}
	return res
}

// SimulateCellBreach models the decentralized counterpart: breaking the
// secure hardware of one cell exposes only that user's records, and — thanks
// to per-cell key diversification — no other cell's keys. usersRecords maps a
// user to her record count; compromisedUser names the broken cell.
func SimulateCellBreach(usersRecords map[string]int, compromisedUser string) BreachResult {
	n, ok := usersRecords[compromisedUser]
	if !ok {
		return BreachResult{}
	}
	return BreachResult{UsersExposed: 1, RecordsExposed: n, PlaintextRecovered: true}
}

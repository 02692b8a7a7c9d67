package policy

import (
	"encoding/json"
	"fmt"
	"time"

	"trustedcells/internal/crypto"
)

// StickyPolicy binds a policy set (and usage limits) to a specific piece of
// data so that the rules travel with the data and are enforced by whichever
// trusted cell downloads it. The binding is cryptographic: the originator
// signs the tuple (content hash, policy), so neither the cloud nor the
// recipient can detach or weaken the policy without detection — "usage
// control rules ... are made cryptographically inseparable from the data to
// be protected".
type StickyPolicy struct {
	// DocumentID and ContentHash identify the protected data.
	DocumentID  string `json:"document_id"`
	ContentHash string `json:"content_hash"`
	// OriginatorID is the cell that defined the policy.
	OriginatorID string `json:"originator_id"`
	// Access is the access-control policy the recipient must enforce.
	Access Set `json:"access"`
	// MaxUses caps how many times the data may be accessed (0 = unlimited);
	// enforced by the recipient's usage-control monitor.
	MaxUses int `json:"max_uses,omitempty"`
	// NotAfter is an absolute expiry for any use of the data.
	NotAfter time.Time `json:"not_after,omitempty"`
	// ObligationNotify requires the recipient cell to push an audit record to
	// the originator for every access.
	ObligationNotify bool `json:"obligation_notify,omitempty"`
	// OriginatorKey and Signature authenticate the policy.
	OriginatorKey []byte `json:"originator_key"`
	Signature     []byte `json:"signature"`
}

func (p *StickyPolicy) message() ([]byte, error) {
	clone := *p
	clone.Signature = nil
	return json.Marshal(&clone)
}

// SealSticky signs a sticky policy with the originator's signing function.
func SealSticky(p StickyPolicy, originatorKey crypto.VerifyKey, sign func([]byte) ([]byte, error)) (*StickyPolicy, error) {
	p.OriginatorKey = originatorKey.Bytes()
	msg, err := p.message()
	if err != nil {
		return nil, fmt.Errorf("policy: seal sticky: %w", err)
	}
	sig, err := sign(msg)
	if err != nil {
		return nil, fmt.Errorf("policy: seal sticky: %w", err)
	}
	p.Signature = sig
	return &p, nil
}

// Verify checks the sticky policy signature and, when contentHash is
// non-empty, that the policy is bound to that exact content.
func (p *StickyPolicy) Verify(contentHash string) error {
	vk, err := crypto.VerifyKeyFromBytes(p.OriginatorKey)
	if err != nil {
		return fmt.Errorf("%w: bad originator key", ErrStickyTampered)
	}
	msg, err := p.message()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStickyTampered, err)
	}
	if err := vk.Verify(msg, p.Signature); err != nil {
		return fmt.Errorf("%w: bad signature", ErrStickyTampered)
	}
	if contentHash != "" && p.ContentHash != contentHash {
		return fmt.Errorf("%w: content hash mismatch", ErrStickyTampered)
	}
	return nil
}

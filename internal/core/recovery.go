package core

import (
	"errors"
	"fmt"

	"trustedcells/internal/audit"
	"trustedcells/internal/crypto"
)

// The paper's secure-sharing challenge notes that "master secrets must be
// restorable in case of crash/loss of a trusted cell". This file implements
// that recovery path: the master secret is split into Shamir shares handed to
// trustees (family members' cells, a notary, a citizen association); any
// threshold-sized subset of shares rebuilds a replacement cell that derives
// the same key hierarchy and can therefore re-open the encrypted vault, while
// fewer shares reveal nothing.

// Errors returned by the recovery flow.
var (
	ErrRecoveryShares = errors.New("core: not enough recovery shares")
)

// RecoveryShare is one trustee's share of a cell's master secret.
type RecoveryShare struct {
	// CellID names the cell the share belongs to.
	CellID string
	// TrusteeID names the trustee the share was issued to.
	TrusteeID string
	// Share is the Shamir share of the provisioning seed.
	Share crypto.ShamirShare
	// Threshold is the number of shares needed for recovery.
	Threshold int
}

// IssueRecoveryShares splits the provisioning seed of a deterministic cell
// into n shares with reconstruction threshold k, one per trustee. It is an
// owner operation. The seed (not the derived master key) is shared so that a
// recovered cell is byte-for-byte equivalent to the lost one, including its
// attestation identity.
//
// Cells provisioned non-deterministically have no externalizable seed; they
// must be created with a Seed to be recoverable (the simulator and the CLI
// always do).
func IssueRecoveryShares(cellID string, seed []byte, trustees []string, k int) ([]RecoveryShare, error) {
	if len(seed) == 0 {
		return nil, fmt.Errorf("core: recovery shares require a provisioning seed")
	}
	if len(trustees) < k {
		return nil, fmt.Errorf("core: %d trustees cannot satisfy a threshold of %d", len(trustees), k)
	}
	shares, err := crypto.SplitSecret(seed, len(trustees), k)
	if err != nil {
		return nil, fmt.Errorf("core: issuing recovery shares: %w", err)
	}
	out := make([]RecoveryShare, len(trustees))
	for i, trustee := range trustees {
		out[i] = RecoveryShare{CellID: cellID, TrusteeID: trustee, Share: shares[i], Threshold: k}
	}
	return out, nil
}

// RecoverCell rebuilds a replacement cell from at least Threshold recovery
// shares. The replacement derives the same master secret and identity as the
// lost cell, restores the encrypted vault from the cloud (when one exists)
// and is ready to use.
func RecoverCell(shares []RecoveryShare, cfg Config) (*Cell, error) {
	if len(shares) == 0 {
		return nil, ErrRecoveryShares
	}
	threshold := shares[0].Threshold
	cellID := shares[0].CellID
	for _, s := range shares {
		if s.CellID != cellID {
			return nil, fmt.Errorf("core: recovery shares belong to different cells (%s vs %s)", s.CellID, cellID)
		}
	}
	if len(shares) < threshold {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrRecoveryShares, len(shares), threshold)
	}
	raw := make([]crypto.ShamirShare, len(shares))
	for i, s := range shares {
		raw[i] = s.Share
	}
	seed, err := crypto.RecoverSecret(raw, threshold)
	if err != nil {
		return nil, fmt.Errorf("core: recovering master seed: %w", err)
	}
	if cfg.ID == "" {
		cfg.ID = cellID
	}
	cfg.Seed = seed
	cell, err := New(cfg)
	if err != nil {
		return nil, err
	}
	cell.appendAudit(cfg.ID, "recover-cell", cfg.ID, audit.OutcomeAllowed,
		fmt.Sprintf("master secret rebuilt from %d shares", len(shares)), "")
	if cell.cloud != nil {
		if _, err := cell.RestoreVault(); err != nil && !errors.Is(err, ErrVaultMissing) {
			return nil, fmt.Errorf("core: recovered cell cannot restore its vault: %w", err)
		}
	}
	return cell, nil
}

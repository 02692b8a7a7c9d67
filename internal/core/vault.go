package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"trustedcells/internal/audit"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

// Errors returned by vault synchronization.
var (
	ErrVaultRollback = errors.New("core: cloud returned an older vault version (rollback attack)")
	ErrVaultMissing  = errors.New("core: no vault found in the cloud")
)

// vaultCounter is the TEE monotonic counter tracking the vault version.
const vaultCounter = "vault-version"

// vaultBlobName is the cloud blob holding a user's encrypted catalog.
func vaultBlobName(userID string) string { return userID + "/catalog" }

// SyncVault seals the metadata catalog under the cell's metadata key and
// pushes it to the cloud. The version number comes from a TEE monotonic
// counter and is embedded in the sealed payload so that a replaying cloud
// cannot serve an older vault without detection.
func (c *Cell) SyncVault() (uint64, error) {
	if c.tee.Locked() {
		return 0, ErrNotOwner
	}
	if c.cloud == nil {
		return 0, ErrNoCloud
	}
	version, err := c.tee.CounterIncrement(vaultCounter)
	if err != nil {
		return 0, err
	}
	payload, err := c.catalog.EncodeCatalog()
	if err != nil {
		return 0, fmt.Errorf("core: sync vault: %w", err)
	}
	var versioned []byte
	var vbuf [8]byte
	binary.BigEndian.PutUint64(vbuf[:], version)
	versioned = append(versioned, vbuf[:]...)
	versioned = append(versioned, payload...)
	sealed, err := crypto.Seal(c.keys.MetadataKey(), versioned, []byte("vault:"+c.id))
	if err != nil {
		return 0, fmt.Errorf("core: sync vault: %w", err)
	}
	if _, err := c.cloud.PutBlob(vaultBlobName(c.id), sealed); err != nil {
		return 0, fmt.Errorf("core: sync vault: %w", err)
	}
	c.appendAudit(c.id, "sync-vault", vaultBlobName(c.id), audit.OutcomeAllowed,
		fmt.Sprintf("version %d", version), "")
	return version, nil
}

// RestoreVault fetches the encrypted catalog from the cloud, verifies its
// integrity and freshness (the embedded version must not be older than the
// TEE counter) and replaces the in-cell catalog's contents in place, so a
// concurrent read, search or ingest sees the old catalog or the restored
// one. This is how Charlie, at an internet café with only his portable cell,
// recovers access to his whole digital space from any terminal without
// leaving a trace.
func (c *Cell) RestoreVault() (uint64, error) {
	if c.tee.Locked() {
		return 0, ErrNotOwner
	}
	if c.cloud == nil {
		return 0, ErrNoCloud
	}
	blob, err := c.cloud.GetBlob(vaultBlobName(c.id))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrVaultMissing, err)
	}
	plain, ad, err := crypto.Open(c.keys.MetadataKey(), blob.Data)
	if err != nil {
		c.appendAudit(c.id, "restore-vault", vaultBlobName(c.id), audit.OutcomeError, "integrity failure", "")
		return 0, fmt.Errorf("%w: vault envelope", ErrIntegrity)
	}
	if string(ad) != "vault:"+c.id {
		return 0, fmt.Errorf("%w: vault bound to another cell", ErrIntegrity)
	}
	if len(plain) < 8 {
		return 0, fmt.Errorf("%w: truncated vault", ErrIntegrity)
	}
	version := binary.BigEndian.Uint64(plain[:8])
	current, err := c.tee.CounterValue(vaultCounter)
	if err != nil {
		return 0, err
	}
	if version < current {
		c.appendAudit(c.id, "restore-vault", vaultBlobName(c.id), audit.OutcomeError, "rollback detected", "")
		return 0, ErrVaultRollback
	}
	catalog, err := datamodel.LoadCatalog(plain[8:])
	if err != nil {
		return 0, fmt.Errorf("core: restore vault: %w", err)
	}
	if err := c.tee.CounterAdvanceTo(vaultCounter, version); err != nil {
		return 0, err
	}
	n := catalog.Len()
	c.catalog.Replace(catalog)
	c.appendAudit(c.id, "restore-vault", vaultBlobName(c.id), audit.OutcomeAllowed,
		fmt.Sprintf("version %d, %d documents", version, n), "")
	return version, nil
}

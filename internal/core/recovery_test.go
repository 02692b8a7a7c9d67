package core

import (
	"bytes"
	"errors"
	"testing"

	"trustedcells/internal/cloud"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
)

func TestIssueRecoverySharesValidation(t *testing.T) {
	if _, err := IssueRecoveryShares("alice", nil, []string{"a", "b", "c"}, 2); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := IssueRecoveryShares("alice", []byte("seed"), []string{"a"}, 2); err == nil {
		t.Fatal("fewer trustees than threshold accepted")
	}
	shares, err := IssueRecoveryShares("alice", []byte("seed-alice"), []string{"bob", "mum", "notary"}, 2)
	if err != nil {
		t.Fatalf("IssueRecoveryShares: %v", err)
	}
	if len(shares) != 3 {
		t.Fatalf("shares = %d", len(shares))
	}
	for i, s := range shares {
		if s.CellID != "alice" || s.Threshold != 2 || s.TrusteeID == "" {
			t.Fatalf("share %d: %+v", i, s)
		}
	}
}

func TestRecoverCellRebuildsVaultAccess(t *testing.T) {
	svc := cloud.NewMemory()
	seed := []byte("seed-alice-gw")
	original, err := New(Config{ID: "alice-gw", Class: tamper.ClassHomeGateway, PIN: "p",
		Cloud: svc, Seed: seed, Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("irreplaceable family photo")
	doc, err := original.Ingest(payload, IngestOptions{Type: "photo", Class: datamodel.ClassAuthored, Title: "photo"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := original.SyncVault(); err != nil {
		t.Fatal(err)
	}
	shares, err := IssueRecoveryShares("alice-gw", seed, []string{"bob", "mum", "notary", "bank"}, 3)
	if err != nil {
		t.Fatal(err)
	}

	// The gateway burns down. Three trustees contribute their shares.
	recovered, err := RecoverCell([]RecoveryShare{shares[0], shares[2], shares[3]},
		Config{Class: tamper.ClassTrustZonePhone, PIN: "new-pin", Cloud: svc, Clock: fixedClock()})
	if err != nil {
		t.Fatalf("RecoverCell: %v", err)
	}
	if recovered.ID() != "alice-gw" {
		t.Fatalf("recovered cell ID %q", recovered.ID())
	}
	if recovered.tee.Profile().Class != tamper.ClassTrustZonePhone {
		t.Fatal("recovered cell should use the new hardware class")
	}
	// Identity is preserved (same seed → same attestation key).
	origID, _ := original.Identity()
	recID, _ := recovered.Identity()
	if !origID.Equal(recID) {
		t.Fatal("recovered cell has a different identity")
	}
	// The vault was restored and the payload is readable again.
	if recovered.Catalog().Len() != 1 {
		t.Fatalf("recovered catalog has %d docs", recovered.Catalog().Len())
	}
	_ = recovered.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow, SubjectIDs: []string{"alice"}})
	got, err := recovered.Read("alice", doc.ID, AccessContext{})
	if err != nil {
		t.Fatalf("Read on recovered cell: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("recovered payload differs")
	}
}

func TestRecoverCellBelowThreshold(t *testing.T) {
	shares, _ := IssueRecoveryShares("alice-gw", []byte("seed"), []string{"a", "b", "c"}, 3)
	if _, err := RecoverCell(shares[:2], Config{Class: tamper.ClassSecureToken, Clock: fixedClock()}); !errors.Is(err, ErrRecoveryShares) {
		t.Fatalf("below-threshold recovery: %v", err)
	}
	if _, err := RecoverCell(nil, Config{}); !errors.Is(err, ErrRecoveryShares) {
		t.Fatalf("empty shares: %v", err)
	}
}

func TestRecoverCellMixedShares(t *testing.T) {
	a, _ := IssueRecoveryShares("alice-gw", []byte("seed-a"), []string{"x", "y"}, 2)
	b, _ := IssueRecoveryShares("bob-phone", []byte("seed-b"), []string{"x", "y"}, 2)
	if _, err := RecoverCell([]RecoveryShare{a[0], b[1]}, Config{Class: tamper.ClassSecureToken, Clock: fixedClock()}); err == nil {
		t.Fatal("shares from different cells accepted")
	}
}

func TestRecoverCellWithoutCloud(t *testing.T) {
	seed := []byte("seed-standalone")
	shares, _ := IssueRecoveryShares("standalone", seed, []string{"a", "b", "c"}, 2)
	cell, err := RecoverCell(shares[:2], Config{Class: tamper.ClassSecureMCU, Clock: fixedClock()})
	if err != nil {
		t.Fatalf("RecoverCell without cloud: %v", err)
	}
	if cell.Catalog().Len() != 0 {
		t.Fatal("fresh recovered cell should have an empty catalog")
	}
}

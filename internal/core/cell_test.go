package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
	"trustedcells/internal/ucon"
)

var testTime = time.Date(2013, 1, 20, 8, 0, 0, 0, time.UTC)

func fixedClock() func() time.Time {
	t := testTime
	return func() time.Time { return t }
}

func newTestCell(t testing.TB, id string, svc cloud.Service) *Cell {
	t.Helper()
	c, err := New(Config{
		ID:    id,
		Class: tamper.ClassHomeGateway,
		PIN:   "1234",
		Cloud: svc,
		Seed:  []byte("seed-" + id),
		Clock: fixedClock(),
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	return c
}

func TestNewCellValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("cell without ID accepted")
	}
	c, err := New(Config{ID: "alice-gw", Class: tamper.ClassSecureToken})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.ID() != "alice-gw" {
		t.Fatalf("ID = %q", c.ID())
	}
	if _, err := c.Identity(); err != nil {
		t.Fatalf("Identity: %v", err)
	}
}

func TestIngestAndOwnerRead(t *testing.T) {
	svc := cloud.NewMemory()
	c := newTestCell(t, "alice-gw", svc)
	payload := []byte("pay slip for January 2013")
	doc, err := c.Ingest(payload, IngestOptions{
		Class: datamodel.ClassExternal, Type: "pay-slip", Title: "January pay slip",
		Keywords: []string{"salary", "2013"},
	})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if doc.Owner != "alice-gw" || doc.Size != int64(len(payload)) || doc.BlobRef == "" {
		t.Fatalf("document metadata %+v", doc)
	}
	// The blob stored in the cloud must be sealed, not plaintext.
	blob, err := svc.GetBlob(doc.BlobRef)
	if err != nil {
		t.Fatalf("cloud blob missing: %v", err)
	}
	if bytes.Contains(blob.Data, []byte("pay slip")) {
		t.Fatal("plaintext leaked to the cloud")
	}
	// Owner reads through the reference monitor after granting itself a rule.
	if err := c.AddRule(policy.Rule{ID: "owner-all", Effect: policy.EffectAllow, SubjectIDs: []string{"alice"}}); err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	got, err := c.Read("alice", doc.ID, AccessContext{})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Read returned %q", got)
	}
	// Metadata search stays local.
	docs, err := c.Search(datamodel.Query{Keyword: "salary"})
	if err != nil || len(docs) != 1 {
		t.Fatalf("Search: %v %v", docs, err)
	}
}

func TestReadDeniedByDefaultAndAudited(t *testing.T) {
	c := newTestCell(t, "alice-gw", cloud.NewMemory())
	doc, _ := c.Ingest([]byte("secret"), IngestOptions{Class: datamodel.ClassAuthored, Type: "note", Title: "n"})
	if _, err := c.Read("stranger", doc.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("stranger read: %v", err)
	}
	denied := auditMatching(c, "stranger", doc.ID, audit.OutcomeDenied)
	if len(denied) != 1 {
		t.Fatalf("denied access not audited: %d records", len(denied))
	}
	if _, err := c.Read("x", "no-such-doc", AccessContext{}); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("unknown doc: %v", err)
	}
	if err := c.AuditLog().Verify(); err != nil {
		t.Fatalf("audit chain: %v", err)
	}
}

func TestOwnerOperationsRequireUnlockedTEE(t *testing.T) {
	c := newTestCell(t, "alice-gw", cloud.NewMemory())
	c.TEE().Lock()
	if _, err := c.Ingest([]byte("x"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored}); err != ErrNotOwner {
		t.Fatalf("Ingest while locked: %v", err)
	}
	if err := c.AddRule(policy.Rule{ID: "r", Effect: policy.EffectAllow}); err != ErrNotOwner {
		t.Fatalf("AddRule while locked: %v", err)
	}
	if _, err := c.Search(datamodel.Query{}); err != ErrNotOwner {
		t.Fatalf("Search while locked: %v", err)
	}
	if err := c.AttachUsagePolicy(ucon.Policy{ObjectID: "x"}); err != ErrNotOwner {
		t.Fatalf("AttachUsagePolicy while locked: %v", err)
	}
	if _, err := c.SyncVault(); err != ErrNotOwner {
		t.Fatalf("SyncVault while locked: %v", err)
	}
}

func TestAggregateGranularityEnforcement(t *testing.T) {
	c := newTestCell(t, "alice-gw", cloud.NewMemory())
	// One day of synthetic 1-minute readings.
	s := timeseries.NewSeries("power", "W")
	for i := 0; i < 24*60; i++ {
		_ = s.AppendValue(testTime.Add(time.Duration(i)*time.Minute), float64(100+i%50))
	}
	doc, err := c.IngestSeries(s, "day of power", []string{"energy"}, map[string]string{"device": "linky"})
	if err != nil {
		t.Fatalf("IngestSeries: %v", err)
	}
	_ = c.AddRule(policy.Rule{
		ID: "household-15min", Effect: policy.EffectAllow,
		SubjectGroups:  []string{"household"},
		Actions:        []policy.Action{policy.ActionAggregate},
		Resource:       policy.Resource{Type: SeriesDocType},
		MaxGranularity: 15 * time.Minute,
	})
	ctx := AccessContext{Groups: []string{"household"}}
	// 15-minute aggregates are fine.
	agg, err := c.Aggregate("bob", doc.ID, timeseries.Granularity15Min, timeseries.AggregateMean, ctx)
	if err != nil {
		t.Fatalf("Aggregate 15min: %v", err)
	}
	if agg.Len() != 24*4 {
		t.Fatalf("expected 96 buckets, got %d", agg.Len())
	}
	// 1-minute data is finer than allowed.
	if _, err := c.Aggregate("bob", doc.ID, timeseries.GranularityMinute, timeseries.AggregateMean, ctx); err != ErrGranularity {
		t.Fatalf("fine-grained aggregate: %v", err)
	}
	// Raw read denied (no read rule).
	if _, err := c.Read("bob", doc.ID, AccessContext{Groups: []string{"household"}}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("raw read: %v", err)
	}
	// Aggregate on a non-series document fails. The type check follows the
	// policy check, so only a subject a rule admits learns the document is
	// not a series.
	note, _ := c.Ingest([]byte("hello"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if _, err := c.Aggregate("bob", note.ID, timeseries.GranularityHour, timeseries.AggregateMean, ctx); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("aggregate over note without a rule: %v", err)
	}
	_ = c.AddRule(policy.Rule{ID: "household-notes", Effect: policy.EffectAllow,
		SubjectGroups: []string{"household"}, Actions: []policy.Action{policy.ActionAggregate},
		Resource: policy.Resource{Type: "note"}})
	if _, err := c.Aggregate("bob", note.ID, timeseries.GranularityHour, timeseries.AggregateMean, ctx); err != ErrNotSeries {
		t.Fatalf("aggregate over note: %v", err)
	}
}

func TestUsageControlIntegration(t *testing.T) {
	c := newTestCell(t, "alice-gw", cloud.NewMemory())
	doc, _ := c.Ingest([]byte("family photo"), IngestOptions{Type: "photo", Class: datamodel.ClassAuthored})
	_ = c.AddRule(policy.Rule{ID: "friends-read", Effect: policy.EffectAllow,
		SubjectIDs: []string{"carol"}, Actions: []policy.Action{policy.ActionRead}})
	_ = c.AttachUsagePolicy(ucon.Policy{ObjectID: doc.ID, MaxUses: 2})
	for i := 0; i < 2; i++ {
		if _, err := c.Read("carol", doc.ID, AccessContext{}); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if _, err := c.Read("carol", doc.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("third read should exhaust uses: %v", err)
	}
	if c.usage.UseCount(doc.ID, "carol") != 2 {
		t.Fatalf("use count = %d", c.usage.UseCount(doc.ID, "carol"))
	}
}

func TestCredentialGatedAccess(t *testing.T) {
	c := newTestCell(t, "alice-gw", cloud.NewMemory())
	doc, _ := c.Ingest([]byte("blood test results"), IngestOptions{Type: "medical-record", Class: datamodel.ClassExternal})
	_ = c.AddRule(policy.Rule{
		ID: "physicians-only", Effect: policy.EffectAllow,
		Actions:   []policy.Action{policy.ActionRead},
		Resource:  policy.Resource{Type: "medical-record"},
		Condition: policy.Condition{RequiredAttributes: map[string]string{"role": "physician"}},
	})
	issuer, _ := crypto.NewSigningKey()
	c.TrustIssuer("hospital", issuer.Public())
	cred := policy.IssueCredential("hospital", issuer, "dr-dupont", "role", "physician", testTime, testTime.Add(24*time.Hour))

	// Without the credential: denied.
	if _, err := c.Read("dr-dupont", doc.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("read without credential: %v", err)
	}
	// With the certified credential: allowed.
	if _, err := c.Read("dr-dupont", doc.ID, AccessContext{Credentials: []*policy.Credential{cred}}); err != nil {
		t.Fatalf("read with credential: %v", err)
	}
	// A credential from an untrusted issuer does not help.
	rogue, _ := crypto.NewSigningKey()
	fake := policy.IssueCredential("rogue", rogue, "mallory", "role", "physician", testTime, testTime.Add(24*time.Hour))
	if _, err := c.Read("mallory", doc.ID, AccessContext{Credentials: []*policy.Credential{fake}}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("read with rogue credential: %v", err)
	}
}

func TestTamperedCloudBlobDetected(t *testing.T) {
	svc := cloud.NewMemory()
	c := newTestCell(t, "alice-gw", svc)
	doc, err := c.Ingest([]byte("sensitive reading"), IngestOptions{Type: "note", Class: datamodel.ClassSensed})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if _, err := c.SyncVault(); err != nil {
		t.Fatalf("SyncVault: %v", err)
	}
	// The weakly-malicious provider flips one byte of the stored payload.
	blob, err := svc.GetBlob(doc.BlobRef)
	if err != nil {
		t.Fatal(err)
	}
	blob.Data[len(blob.Data)/2] ^= 0x01
	if _, err := svc.PutBlob(doc.BlobRef, blob.Data); err != nil {
		t.Fatal(err)
	}
	// A fresh cell of the same user (same seed, no local cache) must detect
	// the modification when it fetches the payload from the cloud.
	reader, err := New(Config{ID: "alice-gw", Class: tamper.ClassHomeGateway, PIN: "x",
		Cloud: svc, Seed: []byte("seed-alice-gw"), Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.RestoreVault(); err != nil {
		t.Fatalf("RestoreVault: %v", err)
	}
	_ = reader.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow, SubjectIDs: []string{"alice"}})
	if _, err := reader.Read("alice", doc.ID, AccessContext{}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered blob not detected: %v", err)
	}
}

func TestVaultSyncRestoreAndRollbackDetection(t *testing.T) {
	svc := cloud.NewMemory()
	c := newTestCell(t, "charlie", svc)
	_, _ = c.Ingest([]byte("doc one"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored, Title: "one"})
	v1, err := c.SyncVault()
	if err != nil || v1 != 1 {
		t.Fatalf("SyncVault v1: %d %v", v1, err)
	}
	_, _ = c.Ingest([]byte("doc two"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored, Title: "two"})
	v2, err := c.SyncVault()
	if err != nil || v2 != 2 {
		t.Fatalf("SyncVault v2: %d %v", v2, err)
	}

	// Charlie at the internet café: a fresh portable cell with the same seed
	// restores the whole space.
	portable, err := New(Config{ID: "charlie", Class: tamper.ClassSecureToken, PIN: "p",
		Cloud: svc, Seed: []byte("seed-charlie"), Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	version, err := portable.RestoreVault()
	if err != nil {
		t.Fatalf("RestoreVault: %v", err)
	}
	if version != 2 || portable.Catalog().Len() != 2 {
		t.Fatalf("restored version %d with %d docs", version, portable.Catalog().Len())
	}

	// Rollback attack: the cloud serves the old vault to the original cell,
	// whose monotonic counter is already at 2.
	old := snapshotBlob(t, svc, vaultBlobName("charlie"), v1, c)
	if _, err := svc.PutBlob(vaultBlobName("charlie"), old); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestoreVault(); !errors.Is(err, ErrVaultRollback) && !errors.Is(err, ErrIntegrity) {
		t.Fatalf("rollback not detected: %v", err)
	}
}

// snapshotBlob rebuilds the version-1 vault blob by re-syncing a separate
// cell at version 1; it simply returns the version-1 bytes captured before
// the second sync. To keep the test simple we re-seal the old catalog using a
// twin cell with the same seed whose counter is still at 1.
func snapshotBlob(t *testing.T, svc cloud.Service, name string, version uint64, original *Cell) []byte {
	t.Helper()
	twin, err := New(Config{ID: original.ID(), Class: tamper.ClassHomeGateway, PIN: "p",
		Cloud: cloud.NewMemory(), Seed: []byte("seed-" + original.ID()), Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	// One document, one sync → version 1 blob in the twin's private cloud.
	_, _ = twin.Ingest([]byte("doc one"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored, Title: "one"})
	if _, err := twin.SyncVault(); err != nil {
		t.Fatal(err)
	}
	blob, err := twin.cloud.GetBlob(vaultBlobName(original.ID()))
	if err != nil {
		t.Fatal(err)
	}
	return blob.Data
}

func TestCacheStatsAndVerify(t *testing.T) {
	c := newTestCell(t, "alice-gw", cloud.NewMemory())
	for i := 0; i < 50; i++ {
		if _, err := c.Ingest(bytes.Repeat([]byte{byte(i)}, 256), IngestOptions{
			Type: "note", Class: datamodel.ClassAuthored, Title: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	if c.cache.Stats().Puts != 50 {
		t.Fatalf("cache puts = %d", c.cache.Stats().Puts)
	}
}

// auditMatching returns the records of c's audit log with the given actor,
// resource and outcome.
func auditMatching(c *Cell, actor, resource string, outcome audit.Outcome) []audit.Record {
	var out []audit.Record
	for _, r := range c.log.Records() {
		if r.Actor == actor && r.Resource == resource && r.Outcome == outcome {
			out = append(out, r)
		}
	}
	return out
}

package core

import (
	"fmt"
	"testing"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	syncpkg "trustedcells/internal/sync"
	"trustedcells/internal/tamper"
)

// TestCellReplicaWiring verifies the ingest → replica → anti-entropy →
// catalog loop between two cells of one user: documents ingested on the
// gateway become visible in the phone's catalog after one sync round each,
// and the exchange moves only dirty shards.
func TestCellReplicaWiring(t *testing.T) {
	svc := cloud.NewMemory()
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	gateway, err := New(Config{ID: "alice-gw", Class: tamper.ClassHomeGateway,
		Cloud: svc, Seed: []byte("alice-gw")})
	if err != nil {
		t.Fatal(err)
	}
	phone, err := New(Config{ID: "alice-phone", Class: tamper.ClassTrustZonePhone,
		Cloud: svc, Seed: []byte("alice-phone")})
	if err != nil {
		t.Fatal(err)
	}
	gateway.AttachReplica(syncpkg.NewReplica("alice/gw", "alice", key, svc, nil))
	phone.AttachReplica(syncpkg.NewReplica("alice/phone", "alice", key, svc, nil))

	if gateway.Replica() == nil || phone.Replica() == nil {
		t.Fatal("replica not attached")
	}

	var items []IngestItem
	for i := 0; i < 24; i++ {
		items = append(items, IngestItem{
			Payload: []byte(fmt.Sprintf("note-%02d", i)),
			Opts:    IngestOptions{Class: datamodel.ClassAuthored, Type: "note", Title: "n"},
		})
	}
	docs, err := gateway.IngestBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateway.SyncCatalog(); err != nil {
		t.Fatalf("gateway sync: %v", err)
	}
	if gateway.Replica().TransferStats().ShardsPushed == 0 {
		t.Fatal("ingest did not mark replica shards dirty: the sync pushed nothing")
	}
	if err := phone.SyncCatalog(); err != nil {
		t.Fatalf("phone sync: %v", err)
	}
	for _, d := range docs {
		got, err := phone.Catalog().Get(d.ID)
		if err != nil {
			t.Fatalf("document %s did not reach the phone catalog: %v", d.ID, err)
		}
		if got.Owner != "alice-gw" {
			t.Fatalf("replicated document lost its owner: %+v", got)
		}
	}
	// A second round with nothing new must not move any shard.
	before := gateway.Replica().TransferStats()
	if err := gateway.SyncCatalog(); err != nil {
		t.Fatal(err)
	}
	after := gateway.Replica().TransferStats()
	if after.ShardsPushed != before.ShardsPushed {
		t.Fatalf("idle sync pushed shards: %+v -> %+v", before, after)
	}

	// A remote metadata update and a remote deletion must fold into the
	// catalog, not just brand-new documents.
	updated := docs[0].Clone()
	updated.Title = "retitled on the phone"
	phone.Replica().Upsert(updated)
	phone.Replica().Delete(docs[1].ID)
	if err := phone.SyncCatalog(); err != nil {
		t.Fatal(err)
	}
	if err := gateway.SyncCatalog(); err != nil {
		t.Fatal(err)
	}
	got, err := gateway.Catalog().Get(docs[0].ID)
	if err != nil || got.Title != "retitled on the phone" {
		t.Fatalf("remote update did not fold into the catalog: %+v %v", got, err)
	}
	if _, err := gateway.Catalog().Get(docs[1].ID); err == nil {
		t.Fatalf("remote deletion did not fold into the catalog")
	}
}

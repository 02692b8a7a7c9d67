// Quickstart: create a trusted cell, acquire a document into the personal
// data space, define an access policy, and watch the reference monitor allow
// the household and deny a stranger — with every decision audited. Last,
// the owner's phone, a second cell, syncs the catalog through the cloud.
package main

import (
	"fmt"
	"log"

	"trustedcells"
)

func main() {
	// The untrusted infrastructure: here an in-process memory cloud; use
	// trustedcells.DialCloud("host:port") against cmd/tccloud for a real
	// network deployment.
	svc := trustedcells.NewMemoryCloud()

	cell, err := trustedcells.NewCell(trustedcells.CellConfig{
		ID:    "alice-gateway",
		Class: trustedcells.ClassHomeGateway,
		Cloud: svc,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Acquire a document. The payload is sealed inside the cell; only
	// ciphertext reaches the cloud.
	doc, err := cell.Ingest([]byte("January pay slip: 2,345.67 EUR"), trustedcells.IngestOptions{
		Class:    trustedcells.ClassExternal,
		Type:     "pay-slip",
		Title:    "January pay slip",
		Keywords: []string{"salary", "2013"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %s (%d bytes), blob %s\n", doc.ID, doc.Size, doc.BlobRef)

	// 2. Define who may do what. The policy is closed by default.
	if err := cell.AddRule(trustedcells.Rule{
		ID:         "household-reads-docs",
		Effect:     trustedcells.EffectAllow,
		SubjectIDs: []string{"alice", "bob"},
		Actions:    []trustedcells.Action{trustedcells.ActionRead},
	}); err != nil {
		log.Fatal(err)
	}

	// 3. Requests go through the reference monitor.
	if payload, err := cell.Read("bob", doc.ID, trustedcells.AccessContext{}); err == nil {
		fmt.Printf("bob read %d bytes: %q\n", len(payload), payload)
	} else {
		log.Fatalf("bob should have access: %v", err)
	}
	if _, err := cell.Read("acme-marketing", doc.ID, trustedcells.AccessContext{}); err != nil {
		fmt.Printf("acme-marketing denied: %v\n", err)
	}

	// 4. Metadata-first search never touches the cloud.
	docs, err := cell.Search(trustedcells.Query{Keyword: "salary"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d document(s) for keyword \"salary\"\n", len(docs))

	// 5. Everything is accountable.
	fmt.Println("audit trail:")
	for _, rec := range cell.AuditLog().Records() {
		fmt.Printf("  #%d %-18s actor=%-15s outcome=%s\n", rec.Seq, rec.Action, rec.Actor, rec.Outcome)
	}
	if err := cell.AuditLog().Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("audit hash chain verified")

	// 6. Alice's phone is a second cell of hers. From the moment a replica
	// is attached, what the gateway ingests replicates to the phone's
	// catalog through the untrusted cloud, sealed under a key only her
	// cells hold.
	phone, err := trustedcells.NewCell(trustedcells.CellConfig{
		ID:    "alice-phone",
		Class: trustedcells.ClassTrustZonePhone,
		Cloud: svc,
	})
	if err != nil {
		log.Fatal(err)
	}
	key, err := trustedcells.NewReplicaKey()
	if err != nil {
		log.Fatal(err)
	}
	cell.AttachReplica(trustedcells.NewReplica("alice/gateway", "alice", key, svc))
	phone.AttachReplica(trustedcells.NewReplica("alice/phone", "alice", key, svc))
	if _, err := cell.Ingest([]byte("February pay slip: 2,345.67 EUR"), trustedcells.IngestOptions{
		Class:    trustedcells.ClassExternal,
		Type:     "pay-slip",
		Title:    "February pay slip",
		Keywords: []string{"salary", "2013"},
	}); err != nil {
		log.Fatal(err)
	}
	for _, c := range []*trustedcells.Cell{cell, phone} {
		if err := c.SyncCatalog(); err != nil {
			log.Fatal(err)
		}
	}
	onPhone, err := phone.Search(trustedcells.Query{Keyword: "salary"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phone catalog after one sync round: %d document(s) for \"salary\", replicas converged: %v\n",
		len(onPhone), trustedcells.ReplicasEqual(cell.Replica(), phone.Replica()))
}

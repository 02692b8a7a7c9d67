// Photoconsent: the paper's photo-blurring scenario. Alice's camera cell
// holds a photo in which Bob appears; before the photo joins Alice's personal
// space, Bob's cell must approve it. Bob refuses the raw photo and approves
// the blurred one, and Alice's cell integrates only what Bob approved.
package main

import (
	"fmt"
	"log"

	"trustedcells"
)

func main() {
	svc := trustedcells.NewMemoryCloud()
	newCell := func(id string) *trustedcells.Cell {
		c, err := trustedcells.NewCell(trustedcells.CellConfig{ID: id, Class: trustedcells.ClassTrustZonePhone, Cloud: svc})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	alice, bob := newCell("alice-camera"), newCell("bob-phone")

	// The two cells share a pairing secret: approval requests and answers
	// travel sealed between them, and the cloud relays only ciphertext.
	secret, err := trustedcells.NewPairingSecret()
	if err != nil {
		log.Fatal(err)
	}
	for _, pair := range [][2]*trustedcells.Cell{{alice, bob}, {bob, alice}} {
		if err := pair[0].Pair(pair[1].ID(), secret); err != nil {
			log.Fatal(err)
		}
	}

	opts := trustedcells.IngestOptions{Class: trustedcells.ClassAuthored, Type: "photo", Title: "Park, Sunday"}
	// ask sends one version of the photo to Bob's cell, lets Bob decide,
	// and tries to integrate it on Alice's cell.
	ask := func(photo []byte, approve bool, reason string) {
		id, err := alice.RequestApproval(bob.ID(), "photo at the park, Bob in frame", "photo", photo)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := bob.ProcessInbox(); err != nil {
			log.Fatal(err)
		}
		for _, req := range bob.PendingApprovals() {
			fmt.Printf("bob's cell asks its owner: %q from %s\n", req.Description, req.From)
			if err := bob.RespondApproval(req.ID, approve, reason); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := alice.ProcessInbox(); err != nil {
			log.Fatal(err)
		}
		status, err := alice.ApprovalStatusOf(id)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := alice.IngestReferencing(photo, opts, id)
		if err != nil {
			fmt.Printf("  %s (%s): not integrated: %v\n", status, reason, err)
			return
		}
		fmt.Printf("  %s (%s): integrated as %s\n", status, reason, doc.ID)
	}
	ask([]byte("raw pixels: Bob's face in full"), false, "please blur my face")
	ask([]byte("blurred pixels: Bob unrecognisable"), true, "blurred is fine")

	docs, err := alice.Search(trustedcells.Query{Type: "photo"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice's space holds %d photo(s)\n", len(docs))
}

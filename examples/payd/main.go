// Pay-as-you-drive: the GPS tracking box in Alice's car is a trusted source.
// The raw trace stays in her cell; the insurer only ever receives the result
// of the road-pricing computation, and the audit log proves it.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"trustedcells"
)

func main() {
	start := time.Date(2013, 3, 4, 8, 0, 0, 0, time.UTC)
	svc := trustedcells.NewMemoryCloud()
	carCell, err := trustedcells.NewCell(trustedcells.CellConfig{
		ID:    "alice-car",
		Class: trustedcells.ClassSecureMCU,
		Cloud: svc,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A week of commutes recorded by the tracking box.
	var totalFee float64
	var summaries []trustedcells.Document
	for day := 0; day < 5; day++ {
		trip, err := trustedcells.GenerateTrip(fmt.Sprintf("commute-%d", day), start.AddDate(0, 0, day), int64(100+day))
		if err != nil {
			log.Fatal(err)
		}
		// Raw trace: stays inside the cell (class "sensed", never shared).
		raw, err := json.Marshal(trip)
		if err != nil {
			log.Fatal(err)
		}
		rawDoc, err := carCell.Ingest(raw, trustedcells.IngestOptions{
			Class: trustedcells.ClassSensed, Type: "gps-trace",
			Title: trip.ID, Tags: map[string]string{"vehicle": "alice-car"}})
		if err != nil {
			log.Fatal(err)
		}
		// The pricing computation runs inside the cell; only its result is
		// stored as a shareable summary document.
		summary := trustedcells.ComputeRoadPricing(trip)
		totalFee += summary.Fee
		sumPayload, _ := json.Marshal(summary)
		sumDoc, err := carCell.Ingest(sumPayload, trustedcells.IngestOptions{
			Class: trustedcells.ClassSensed, Type: "road-pricing-summary",
			Title: "pricing " + trip.ID, Tags: map[string]string{"vehicle": "alice-car"}})
		if err != nil {
			log.Fatal(err)
		}
		summaries = append(summaries, *sumDoc)
		fmt.Printf("%s: %5.1f km recorded (raw doc %s), fee %.2f EUR (summary %s)\n",
			trip.ID, trip.DistanceKm(), rawDoc.ID[:12], summary.Fee, sumDoc.ID[:12])
	}

	// The insurer may read pricing summaries, never GPS traces, and only
	// while it holds a motor-insurance licence from the regulator, an
	// issuer the cell trusts.
	regulator, err := trustedcells.NewSigningKey()
	if err != nil {
		log.Fatal(err)
	}
	carCell.TrustIssuer("insurance-regulator", regulator.Public())
	if err := carCell.AddRule(trustedcells.Rule{
		ID: "insurer-summaries-only", Effect: trustedcells.EffectAllow,
		SubjectIDs: []string{"car-insurer"},
		Actions:    []trustedcells.Action{trustedcells.ActionRead},
		Resource:   trustedcells.Resource{Type: "road-pricing-summary"},
		Condition:  trustedcells.Condition{RequiredAttributes: map[string]string{"licence": "motor-insurance"}},
	}); err != nil {
		log.Fatal(err)
	}
	if err := carCell.AddRule(trustedcells.Rule{
		ID: "never-raw-gps", Effect: trustedcells.EffectDeny,
		Actions:  []trustedcells.Action{trustedcells.ActionRead, trustedcells.ActionShare},
		Resource: trustedcells.Resource{Type: "gps-trace"},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nweekly fee reported to the insurer: %.2f EUR\n", totalFee)

	// Usage control: the insurer may read each summary once.
	for _, d := range summaries {
		if err := carCell.AttachUsagePolicy(trustedcells.UsagePolicy{
			ObjectID: d.ID, SubjectID: "car-insurer", MaxUses: 1,
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Demonstrate the enforcement: a summary is readable once with the
	// licence, raw traces never.
	now := time.Now()
	licence := trustedcells.IssueCredential("insurance-regulator", regulator,
		"car-insurer", "licence", "motor-insurance", now, now.AddDate(1, 0, 0))
	if _, err := carCell.Read("car-insurer", summaries[0].ID, trustedcells.AccessContext{Purpose: "billing"}); err != nil {
		fmt.Printf("insurer read of a pricing summary without its licence: denied (%v)\n", err)
	}
	insurer := trustedcells.AccessContext{Purpose: "billing", Credentials: []*trustedcells.Credential{licence}}
	if _, err := carCell.Read("car-insurer", summaries[0].ID, insurer); err != nil {
		fmt.Printf("summary read unexpectedly denied: %v\n", err)
	} else {
		fmt.Println("insurer read a pricing summary with its licence: allowed")
	}
	if _, err := carCell.Read("car-insurer", summaries[0].ID, insurer); err != nil {
		fmt.Printf("insurer's second read of the same summary: denied (%v)\n", err)
	}
	rawDocs, _ := carCell.Search(trustedcells.Query{Type: "gps-trace"})
	if _, err := carCell.Read("car-insurer", rawDocs[0].ID, insurer); err != nil {
		fmt.Printf("insurer read of a raw GPS trace: denied (%v)\n", err)
	}

	fmt.Printf("\naudit log holds %d records; chain valid: %v\n",
		carCell.AuditLog().Len(), carCell.AuditLog().Verify() == nil)
}

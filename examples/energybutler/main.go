// Energy butler: the motivating scenario of the paper. Alice and Bob's home
// gateway is a trusted cell fed by a 1 Hz Linky power meter. The cell keeps
// the raw feed to itself, exposes 15-minute aggregates to the household,
// daily statistics to a social game, certified hourly statistics to the
// distribution company, answers the company's neighbourhood census through
// the shared commons under those same rules — and the example shows how much
// activity information each granularity would reveal to an eavesdropper.
package main

import (
	"fmt"
	"log"
	"time"

	"trustedcells"
)

func main() {
	start := time.Date(2013, 1, 14, 0, 0, 0, 0, time.UTC)
	svc := trustedcells.NewMemoryCloud()
	gateway, err := trustedcells.NewCell(trustedcells.CellConfig{
		ID:    "alicebob-home",
		Class: trustedcells.ClassHomeGateway,
		Cloud: svc,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The Linky pushes a day of 1 Hz readings into the cell.
	trace, err := trustedcells.GenerateHousehold(start, 24*time.Hour, 2013)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := gateway.IngestSeries(trace.Power, "household power, 1 Hz",
		[]string{"energy", "linky"}, map[string]string{"device": "linky"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d raw readings (%.1f kWh over the day)\n", trace.Power.Len(), trace.Power.Energy())

	// Sharing tiers from the paper, expressed as granularity-capped rules.
	rules := []trustedcells.Rule{
		{ID: "household-15min", Effect: trustedcells.EffectAllow,
			SubjectGroups:  []string{"household"},
			Actions:        []trustedcells.Action{trustedcells.ActionAggregate},
			MaxGranularity: 15 * time.Minute},
		{ID: "social-game-daily", Effect: trustedcells.EffectAllow,
			SubjectIDs:     []string{"simple-energy-game"},
			Actions:        []trustedcells.Action{trustedcells.ActionAggregate},
			MaxGranularity: 24 * time.Hour},
		{ID: "utility-hourly", Effect: trustedcells.EffectAllow,
			SubjectIDs:     []string{"distribution-company"},
			Actions:        []trustedcells.Action{trustedcells.ActionAggregate},
			MaxGranularity: time.Hour},
	}
	for _, r := range rules {
		if err := gateway.AddRule(r); err != nil {
			log.Fatal(err)
		}
	}

	// Alice checks the 15-minute view on the family visualization app.
	household := trustedcells.AccessContext{Groups: []string{"household"}}
	view, err := gateway.Aggregate("alice", doc.ID, trustedcells.Granularity15Min, trustedcells.AggregateMean, household)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("household visualization: %d fifteen-minute buckets\n", view.Len())

	// The social game only ever sees one number per day.
	daily, err := gateway.Aggregate("simple-energy-game", doc.ID, trustedcells.GranularityDay, trustedcells.AggregateMean, trustedcells.AccessContext{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social game feed: %d daily value(s)\n", daily.Len())

	// The utility asks for raw data — and is refused; hourly is fine.
	if _, err := gateway.Aggregate("distribution-company", doc.ID, trustedcells.GranularityMinute,
		trustedcells.AggregateMean, trustedcells.AccessContext{}); err != nil {
		fmt.Printf("utility request for 1-minute data refused: %v\n", err)
	}
	hourly, err := gateway.Aggregate("distribution-company", doc.ID, trustedcells.GranularityHour, trustedcells.AggregateMean, trustedcells.AccessContext{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("utility feed: %d certified-granularity hourly values\n", hourly.Len())

	// The company's neighbourhood census of daily mean power runs over the
	// shared commons. The gateway answers from its sealed feed through its
	// own policy gate (a daily value is within the hourly cap); two
	// neighbours answer with fixed values. The company only sees the noised
	// total of secret shares.
	key, err := trustedcells.NewCommonsKey()
	if err != nil {
		log.Fatal(err)
	}
	community := trustedcells.NewCommonsCommunity("neighbourhood", key)
	responders := []*trustedcells.CommonsResponder{trustedcells.NewCommonsResponder(gateway.ID(), community, svc,
		trustedcells.CommonsCellEvaluator(gateway, "distribution-company", trustedcells.AccessContext{}))}
	for id, watts := range map[string]uint64{"neighbour-1": 380, "neighbour-2": 510} {
		responders = append(responders, trustedcells.NewCommonsResponder(id, community, svc,
			func(*trustedcells.CommonsSpec) (uint64, bool, error) { return watts, true, nil }))
	}
	aggs := []*trustedcells.CommonsAggregator{
		trustedcells.NewCommonsAggregator("agg-0", community, svc),
		trustedcells.NewCommonsAggregator("agg-1", community, svc),
	}
	census, err := trustedcells.NewCommonsCoordinator(trustedcells.CommonsCoordinatorConfig{
		ID: "distribution-company", Community: community, Cloud: svc,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := census.Query(trustedcells.CommonsSpec{
		ID:              "daily-consumption",
		Filter:          trustedcells.CommonsFilter{TagKey: "device", TagValue: "linky"},
		Granularity:     trustedcells.GranularityDay,
		Kind:            trustedcells.AggregateMean,
		K:               3,
		Epsilon:         1.0,
		MaxContribution: 5000,
		Deadline:        5 * time.Second,
		Aggregators:     []string{"agg-0", "agg-1"},
	}, responders, aggs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("neighbourhood census: %d/%d homes answered, released %v, noised total %.0f W\n",
		res.Responded, res.Total, res.Released, res.NoisySum)

	// Why this matters: what an analyst could infer at each granularity.
	fmt.Println("\nwhat each granularity reveals (appliance-detection F1 on this very day):")
	table, err := trustedcells.RunExperiment("e1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table.String())
}

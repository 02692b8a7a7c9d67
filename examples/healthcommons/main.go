// Health commons: an epidemiological study over many individuals' cells.
// Each cell holds its owner's medical records; the study only ever receives
// (a) a noisy count released by the distributed commons query — each cell
// answers with additive secret shares sealed to a three-cell aggregator
// committee, the untrusted cloud relaying them — and (b) a k-anonymized,
// differentially-private release: the "shared commons" requirement of the
// paper.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"trustedcells"
	"trustedcells/internal/commons"
	"trustedcells/internal/sensor"
)

func main() {
	start := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	const population = 500

	// Every individual cell holds one health record; the study wants the
	// number of diabetes cases and a diet/disease cross table.
	records := sensor.GenerateHealthRecords(population, start, 7)

	// 1. Secure count: each cell answers a sealed query with 0 or 1, split
	// into additive shares for a 3-cell aggregator committee and relayed by
	// the cloud; the study sees only the k-suppressed, Laplace-noised total.
	svc := trustedcells.NewMemoryCloud()
	key, err := trustedcells.NewCommonsKey()
	if err != nil {
		log.Fatal(err)
	}
	community := trustedcells.NewCommonsCommunity("health-study", key)
	responders := make([]*trustedcells.CommonsResponder, population)
	truth := 0
	for i, r := range records {
		v := uint64(0)
		if r.Condition == "diabetes" {
			v = 1
			truth++
		}
		responders[i] = trustedcells.NewCommonsResponder(fmt.Sprintf("cell-%04d", i), community, svc,
			func(*trustedcells.CommonsSpec) (uint64, bool, error) { return v, true, nil })
	}
	aggs := []*trustedcells.CommonsAggregator{
		trustedcells.NewCommonsAggregator("agg-0", community, svc),
		trustedcells.NewCommonsAggregator("agg-1", community, svc),
		trustedcells.NewCommonsAggregator("agg-2", community, svc),
	}
	co, err := trustedcells.NewCommonsCoordinator(trustedcells.CommonsCoordinatorConfig{
		ID: "study", Community: community, Cloud: svc,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := co.Query(trustedcells.CommonsSpec{
		ID:              "diabetes-count",
		K:               10,
		Epsilon:         1.0,
		MaxContribution: 1,
		Deadline:        5 * time.Second,
		Aggregators:     []string{"agg-0", "agg-1", "agg-2"},
	}, responders, aggs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diabetes count over %d/%d cells (k=%d cleared: %v): released %.1f (ground truth %d, eps=%.1f)\n",
		res.Responded, res.Total, res.K, res.Released, res.NoisySum, truth, res.Epsilon)
	fmt.Printf("  cost: %d messages, %.0f sealed bytes per cell\n",
		res.Messages, float64(res.BytesScattered+res.BytesGathered)/float64(res.Total))

	// 2. Anonymized release: quasi-identifiers are generalized inside the
	// cells until every combination matches at least k individuals.
	quasi := make([]commons.QuasiRecord, len(records))
	for i, r := range records {
		quasi[i] = commons.QuasiRecord{AgeBand: r.AgeBand, ZIP3: r.ZIP3, Sensitive: r.Condition}
	}
	anon, err := commons.Anonymize(quasi, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nk-anonymized release (k=10): smallest class %d, information loss %.2f\n",
		anon.SmallestClass, anon.InformationLoss)

	// 3. Differentially-private histogram of conditions.
	hist := commons.HistogramFromSensitive(quasi)
	release, err := commons.LaplaceMechanism(hist, 1.0, rand.New(rand.NewSource(42)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncondition histogram released with epsilon = 1.0:")
	for _, gc := range release {
		fmt.Printf("  %-14s true=%4d  released=%6.1f\n", gc.Group, hist[gc.Group], gc.Count)
	}
	fmt.Printf("mean absolute error: %.2f\n", commons.MeanAbsoluteError(hist, release))

	// 4. Cross-analysis (disease x diet) on the anonymized release.
	cross := commons.CrossHistogram(quasi, func(r commons.QuasiRecord) string { return r.AgeBand })
	fmt.Printf("\ndisease x age-band cells in the cross table: %d\n", len(cross))
}

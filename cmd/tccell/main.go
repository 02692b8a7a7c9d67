// Command tccell runs a trusted cell against a tccloud server and walks
// through the core personal-data-service workflow from the command line:
// ingest a document, list the catalog, read it back through the reference
// monitor, and synchronize the encrypted vault with the cloud. It talks to
// the server's -addr port over the framed protocol (trustedcells.DialCloud).
//
//	tccloud -addr 127.0.0.1:7070 &
//	tccell -id alice-gw -cloud 127.0.0.1:7070 -ingest ./payslip.pdf -type pay-slip
//	tccell -id alice-gw -cloud 127.0.0.1:7070 -list
//
// With -commons N it instead demonstrates the distributed shared commons
// (DESIGN.md §13): N responder cells, a three-member aggregator committee
// and a census coordinator run one scatter/gather aggregate query over the
// configured cloud's mailboxes — in-process by default, or across a live
// tccloud server with -cloud:
//
//	tccell -cloud 127.0.0.1:7070 -commons 100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"trustedcells"
)

// commonsValue is demo cell i's deterministic contribution (one day's
// consumption in watt-hours), so the expected sum over any contributor set
// can be recomputed and the integrity property is visible from the shell.
func commonsValue(i int) uint64 { return uint64(50 + (i*37)%450) }

// runCommons demonstrates the distributed commons query plane over svc: n
// responder cells with deterministic consumption values, a three-member
// aggregator committee, and one k=10, eps=1.0 sum query released with
// honest accounting. The exact sum recomputed over the claimed
// contributors is printed alongside: on a lossy provider coverage shrinks,
// but the two sums must still match.
func runCommons(svc trustedcells.CloudService, n int) error {
	key, err := trustedcells.NewCommonsKey()
	if err != nil {
		return err
	}
	community := trustedcells.NewCommonsCommunity("tccell-demo", key)

	responders := make([]*trustedcells.CommonsResponder, n)
	for i := range responders {
		v := commonsValue(i)
		responders[i] = trustedcells.NewCommonsResponder(fmt.Sprintf("cell-%04d", i), community, svc,
			func(*trustedcells.CommonsSpec) (uint64, bool, error) { return v, true, nil })
	}
	aggIDs := []string{"agg-0", "agg-1", "agg-2"}
	aggs := make([]*trustedcells.CommonsAggregator, len(aggIDs))
	for i, id := range aggIDs {
		aggs[i] = trustedcells.NewCommonsAggregator(id, community, svc)
	}
	co, err := trustedcells.NewCommonsCoordinator(trustedcells.CommonsCoordinatorConfig{
		ID: "census", Community: community, Cloud: svc,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := co.Query(trustedcells.CommonsSpec{
		ID:              "daily-consumption",
		Filter:          trustedcells.CommonsFilter{Type: "power-series"},
		Granularity:     trustedcells.GranularityDay,
		Kind:            trustedcells.AggregateSum,
		K:               10,
		Epsilon:         1.0,
		MaxContribution: 1_000,
		Deadline:        30 * time.Second,
		Aggregators:     aggIDs,
	}, responders, aggs)
	if err != nil {
		return err
	}
	var want uint64
	for _, id := range res.Contributors {
		idx, err := strconv.Atoi(id[len("cell-"):])
		if err != nil {
			return fmt.Errorf("bad contributor id %q: %v", id, err)
		}
		want += commonsValue(idx)
	}
	fmt.Printf("commons query over %d cells in %s:\n", n, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  released=%v responded=%d/%d suppressed=%d\n",
		res.Released, res.Responded, res.Total, res.Suppressed)
	fmt.Printf("  exact sum=%d (expected over %d contributors: %d) noisy sum=%.1f (eps=%.1f, k=%d)\n",
		res.Sum, len(res.Contributors), want, res.NoisySum, res.Epsilon, res.K)
	fmt.Printf("  traffic: %d B scattered, %d B gathered, %d messages\n",
		res.BytesScattered, res.BytesGathered, res.Messages)
	return nil
}

func main() {
	var (
		id       = flag.String("id", "demo-cell", "cell identifier")
		cloudTCP = flag.String("cloud", "", "tccloud -addr to connect to (empty = in-process memory cloud)")
		seed     = flag.String("seed", "", "deterministic provisioning seed (defaults to the cell id)")
		ingest   = flag.String("ingest", "", "path of a file to ingest")
		docType  = flag.String("type", "document", "document type used for -ingest")
		list     = flag.Bool("list", false, "list the catalog after restoring the vault")
		read     = flag.String("read", "", "document ID to read back (as the owner)")
		commons  = flag.Int("commons", 0, "run a distributed commons query demo over N responder cells")
	)
	flag.Parse()

	var svc trustedcells.CloudService
	if *cloudTCP == "" {
		svc = trustedcells.NewMemoryCloud()
		log.Printf("tccell: using an in-process memory cloud (pass -cloud to use tccloud)")
	} else {
		var err error
		svc, err = trustedcells.DialCloud(*cloudTCP)
		if err != nil {
			log.Fatalf("tccell: %v", err)
		}
	}

	if *commons > 0 {
		if err := runCommons(svc, *commons); err != nil {
			log.Fatalf("tccell: commons demo: %v", err)
		}
		return
	}

	provisionSeed := *seed
	if provisionSeed == "" {
		provisionSeed = *id
	}
	cell, err := trustedcells.NewCell(trustedcells.CellConfig{
		ID:    *id,
		Class: trustedcells.ClassHomeGateway,
		Cloud: svc,
		Seed:  []byte(provisionSeed),
	})
	if err != nil {
		log.Fatalf("tccell: %v", err)
	}
	// The owner can always read through the reference monitor.
	if err := cell.AddRule(trustedcells.Rule{
		ID: "owner-read", Effect: trustedcells.EffectAllow,
		SubjectIDs: []string{*id + "-owner"},
		Actions:    []trustedcells.Action{trustedcells.ActionRead, trustedcells.ActionAggregate},
	}); err != nil {
		log.Fatalf("tccell: %v", err)
	}

	// Try to restore an existing vault; a missing vault is fine for a new cell.
	if version, err := cell.RestoreVault(); err == nil {
		log.Printf("tccell: restored vault version %d with %d documents", version, cell.Catalog().Len())
	}

	if *ingest != "" {
		payload, err := os.ReadFile(*ingest)
		if err != nil {
			log.Fatalf("tccell: reading %s: %v", *ingest, err)
		}
		doc, err := cell.Ingest(payload, trustedcells.IngestOptions{
			Class: trustedcells.ClassAuthored,
			Type:  *docType,
			Title: *ingest,
		})
		if err != nil {
			log.Fatalf("tccell: ingest: %v", err)
		}
		version, err := cell.SyncVault()
		if err != nil {
			log.Fatalf("tccell: sync vault: %v", err)
		}
		fmt.Printf("ingested %s as %s (%d bytes), vault version %d\n", *ingest, doc.ID, doc.Size, version)
	}

	if *list {
		docs, err := cell.Search(trustedcells.Query{})
		if err != nil {
			log.Fatalf("tccell: search: %v", err)
		}
		fmt.Printf("%d document(s) in the personal data space of %s:\n", len(docs), *id)
		for _, d := range docs {
			fmt.Printf("  %s  %-12s  %-8s  %6d B  %s\n", d.ID, d.Type, d.Class, d.Size, d.Title)
		}
	}

	if *read != "" {
		payload, err := cell.Read(*id+"-owner", *read, trustedcells.AccessContext{})
		if err != nil {
			log.Fatalf("tccell: read: %v", err)
		}
		if _, err := os.Stdout.Write(payload); err != nil {
			log.Fatalf("tccell: %v", err)
		}
	}

	if *ingest == "" && !*list && *read == "" {
		fmt.Println("tccell: nothing to do; pass -ingest, -list, -read or -commons (see -h)")
	}
}

package trustedcells

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	syncpkg "trustedcells/internal/sync"
	"trustedcells/internal/timeseries"
)

var start = time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)

func TestFacadeQuickstartFlow(t *testing.T) {
	svc := NewMemoryCloud()
	cell, err := NewCell(CellConfig{ID: "alice-gw", Class: ClassHomeGateway, Cloud: svc,
		Seed: []byte("alice"), Clock: func() time.Time { return start }})
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	doc, err := cell.Ingest([]byte("hello personal cloud"), IngestOptions{
		Class: ClassAuthored, Type: "note", Title: "first note", Keywords: []string{"hello"}})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := cell.AddRule(Rule{ID: "self", Effect: EffectAllow, SubjectIDs: []string{"alice"},
		Actions: []Action{ActionRead}}); err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	got, err := cell.Read("alice", doc.ID, AccessContext{})
	if err != nil || !bytes.Equal(got, []byte("hello personal cloud")) {
		t.Fatalf("Read: %q %v", got, err)
	}
	docs, err := cell.Search(Query{Keyword: "hello"})
	if err != nil || len(docs) != 1 {
		t.Fatalf("Search: %v %v", docs, err)
	}
}

// TestFacadeReplicaSync drives the sharded delta synchronizer through the
// facade: two cells of one user, ingest on one, one anti-entropy round each,
// and the other cell's catalog knows the documents.
func TestFacadeReplicaSync(t *testing.T) {
	svc := NewMemoryCloud()
	key, err := NewReplicaKey()
	if err != nil {
		t.Fatalf("NewReplicaKey: %v", err)
	}
	gw, err := NewCell(CellConfig{ID: "bob-gw", Class: ClassHomeGateway, Cloud: svc, Seed: []byte("bob-gw")})
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	phone, err := NewCell(CellConfig{ID: "bob-phone", Class: ClassTrustZonePhone, Cloud: svc, Seed: []byte("bob-phone")})
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	gw.AttachReplica(NewReplica("bob/gw", "bob", key, svc))
	phone.AttachReplica(NewReplicaShards("bob/phone", "bob", key, svc, syncpkg.DefaultShardCount))

	doc, err := gw.Ingest([]byte("replicated note"), IngestOptions{Class: ClassAuthored, Type: "note", Title: "n"})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := gw.SyncCatalog(); err != nil {
		t.Fatalf("gw.SyncCatalog: %v", err)
	}
	if err := phone.SyncCatalog(); err != nil {
		t.Fatalf("phone.SyncCatalog: %v", err)
	}
	if !ReplicasEqual(gw.Replica(), phone.Replica()) {
		t.Fatal("replicas did not converge")
	}
	if _, err := phone.Catalog().Get(doc.ID); err != nil {
		t.Fatalf("document did not reach the phone catalog: %v", err)
	}
	if tr := gw.Replica().TransferStats(); tr.BytesPushed == 0 || tr.ShardsPushed == 0 {
		t.Fatalf("no transfer recorded: %+v", tr)
	}
}

func TestFacadeSeriesAndSensors(t *testing.T) {
	trace, err := GenerateHousehold(start, time.Hour, 1)
	if err != nil || trace.Power.Len() != 3600 {
		t.Fatalf("GenerateHousehold: %v", err)
	}
	trip, err := GenerateTrip("commute", start, 2)
	if err != nil || len(trip.Positions) == 0 {
		t.Fatalf("GenerateTrip: %v", err)
	}
	summary := ComputeRoadPricing(trip)
	if summary.Fee <= 0 {
		t.Fatalf("ComputeRoadPricing fee = %v", summary.Fee)
	}
}

func TestFacadeCommonsAndExperiments(t *testing.T) {
	svc := NewMemoryCloud()
	key, err := NewCommonsKey()
	if err != nil {
		t.Fatal(err)
	}
	comm := NewCommonsCommunity("facade", key)
	var responders []*CommonsResponder
	for id, v := range map[string]uint64{"a": 10, "b": 32} {
		responders = append(responders, NewCommonsResponder(id, comm, svc,
			func(*CommonsSpec) (uint64, bool, error) { return v, true, nil }))
	}
	aggs := []*CommonsAggregator{NewCommonsAggregator("agg-0", comm, svc), NewCommonsAggregator("agg-1", comm, svc)}
	co, err := NewCommonsCoordinator(CommonsCoordinatorConfig{ID: "querier", Community: comm, Cloud: svc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Query(CommonsSpec{ID: "q", K: 2, Epsilon: 1, MaxContribution: 100,
		Deadline: 5 * time.Second, Aggregators: []string{"agg-0", "agg-1"}}, responders, aggs)
	if err != nil || !res.Released || res.Responded != 2 || res.Sum != 42 {
		t.Fatalf("commons query: %+v %v", res, err)
	}
	table, err := RunExperiment("e8")
	if err != nil || len(table.Rows) == 0 {
		t.Fatalf("RunExperiment: %v", err)
	}
	if _, err := RunExperiment("bogus"); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestFacadeCredentials(t *testing.T) {
	issuer, err := NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	cred := IssueCredential("hospital", issuer, "bob", "role", "physician", start, start.Add(time.Hour))
	if cred.SubjectID != "bob" || cred.Attribute != "role" {
		t.Fatalf("credential %+v", cred)
	}
	secret, err := NewPairingSecret()
	if err != nil || secret == (crypto.SymmetricKey{}) {
		t.Fatalf("NewPairingSecret: %v", err)
	}
}

// TestFacadeQueryPipeline drives the planned, batched read path through the
// public facade: an indexed search plan and a batched read.
func TestFacadeQueryPipeline(t *testing.T) {
	svc := NewMemoryCloud()
	cell, err := NewCell(CellConfig{ID: "lib-gw", Class: ClassHomeGateway, Cloud: svc,
		Seed: []byte("lib"), Clock: func() time.Time { return start }})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for d := 0; d < 3; d++ {
		s := timeseries.NewSeries("power", "W")
		for i := 0; i < 24; i++ {
			_ = s.AppendValue(start.Add(time.Duration(i)*time.Hour), float64(100*(d+1)))
		}
		doc, err := cell.IngestSeries(s, "day", []string{"energy"}, map[string]string{"meter": "linky"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, doc.ID)
	}
	if err := cell.AddRule(Rule{ID: "reader", Effect: EffectAllow, SubjectIDs: []string{"alice"},
		Actions: []Action{ActionRead, ActionAggregate}, MaxGranularity: time.Hour}); err != nil {
		t.Fatal(err)
	}

	// Indexed search plan through the facade.
	docs, plan, err := cell.SearchPlan(Query{TagKey: "meter", TagValue: "linky"})
	if err != nil || len(docs) != 3 {
		t.Fatalf("SearchPlan: %d docs, %v", len(docs), err)
	}
	if plan.Index != "tag" {
		t.Fatalf("plan %+v", plan)
	}

	// Batched read through the facade.
	results := cell.ReadBatch("alice", ids, AccessContext{})
	for _, r := range results {
		if r.Err != nil || len(r.Payload) == 0 {
			t.Fatalf("ReadBatch %s: %v", r.DocID, r.Err)
		}
	}
}

// TestFacadeFrontDoorAndFleet exercises the multi-tenant front door end to
// end: admission + tenants over the in-memory cloud, one put through each
// per-tenant view, and the typed quota error. The fleet-scale load runs in
// bench/'s frontdoor_ingest workload.
func TestFacadeFrontDoorAndFleet(t *testing.T) {
	adm := cloud.NewAdmission(cloud.NewMemory(), cloud.AdmissionOptions{})
	tenants := cloud.NewTenants(adm)
	for _, name := range []string{"acme", "globex"} {
		if err := tenants.Define(name, cloud.TenantQuota{}); err != nil {
			t.Fatalf("Define(%s): %v", name, err)
		}
	}
	acme, err := tenants.View("acme")
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	globex, err := tenants.View("globex")
	if err != nil {
		t.Fatalf("View: %v", err)
	}

	// One put through each view: the same name lands in two namespaces.
	views := []struct {
		view cloud.Service
		data string
	}{{acme, "acme doc"}, {globex, "globex doc"}}
	for _, v := range views {
		if _, err := v.view.PutBlob("vault/doc", []byte(v.data)); err != nil {
			t.Fatalf("PutBlob(%s): %v", v.data, err)
		}
	}
	for _, v := range views {
		b, err := v.view.GetBlob("vault/doc")
		if err != nil || string(b.Data) != v.data {
			t.Fatalf("GetBlob = %q, %v; want %q", b.Data, err, v.data)
		}
	}

	// Quota exhaustion surfaces as the typed sentinel with its details.
	if err := tenants.Define("tiny", cloud.TenantQuota{MaxBytes: 1}); err != nil {
		t.Fatalf("Define(tiny): %v", err)
	}
	tiny, err := tenants.View("tiny")
	if err != nil {
		t.Fatalf("View(tiny): %v", err)
	}
	_, err = tiny.PutBlob("vault/doc", bytes.Repeat([]byte{1}, 16))
	if !errors.Is(err, cloud.ErrQuotaExceeded) {
		t.Fatalf("want quota error, got %v", err)
	}
	var qe *cloud.QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "tiny" || qe.Resource != "bytes" {
		t.Fatalf("quota detail %+v", qe)
	}
}

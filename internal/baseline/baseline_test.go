package baseline

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"trustedcells/internal/policy"
)

var now = time.Date(2013, 8, 1, 10, 0, 0, 0, time.UTC)

func populatedVault(t *testing.T, users, docsPerUser int) *CentralVault {
	t.Helper()
	v, err := NewCentralVault()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		owner := fmt.Sprintf("user-%04d", u)
		set := policy.NewSet(owner)
		_ = set.Add(policy.Rule{ID: "self-read", Effect: policy.EffectAllow, SubjectIDs: []string{owner},
			Actions: []policy.Action{policy.ActionRead}})
		v.SetPolicy(owner, set)
		for d := 0; d < docsPerUser; d++ {
			docID := fmt.Sprintf("doc-%02d", d)
			if err := v.Store(owner, docID, "note", []byte(owner+"/"+docID), now); err != nil {
				t.Fatal(err)
			}
		}
	}
	return v
}

func TestStoreReadWithPolicy(t *testing.T) {
	v := populatedVault(t, 3, 2)
	got, err := v.Read("user-0001", "doc-00", "user-0001", now)
	if err != nil {
		t.Fatalf("owner read: %v", err)
	}
	if !bytes.Equal(got, []byte("user-0001/doc-00")) {
		t.Fatalf("payload %q", got)
	}
	// Another user is denied by the server-side policy.
	if _, err := v.Read("user-0001", "doc-00", "user-0002", now); err != ErrDenied {
		t.Fatalf("foreign read: %v", err)
	}
	if _, err := v.Read("user-0001", "missing", "user-0001", now); err != ErrNoSuchDoc {
		t.Fatalf("missing doc: %v", err)
	}
	if _, err := v.Read("ghost", "doc-00", "ghost", now); err != ErrNoSuchDoc {
		t.Fatalf("unknown user: %v", err)
	}
}

func TestMarketingOverrideBypassesUserPolicy(t *testing.T) {
	v := populatedVault(t, 2, 1)
	// Before the provider policy change, analytics is denied.
	if _, err := v.Read("user-0000", "doc-00", "provider-analytics", now); err != ErrDenied {
		t.Fatalf("analytics before override: %v", err)
	}
	v.EnableMarketingOverride()
	// After the unilateral change, the provider reads everything — nothing in
	// the architecture prevents it.
	got, err := v.Read("user-0000", "doc-00", "provider-analytics", now)
	if err != nil || len(got) == 0 {
		t.Fatalf("analytics after override: %v", err)
	}
}

func TestServerBreachExposesEveryone(t *testing.T) {
	const users, docs = 100, 5
	v := populatedVault(t, users, docs)
	breach := v.SimulateServerBreach()
	if breach.UsersExposed != users || breach.RecordsExposed != users*docs || !breach.PlaintextRecovered {
		t.Fatalf("breach %+v", breach)
	}
}

func TestCellBreachExposesOneUser(t *testing.T) {
	population := map[string]int{}
	for u := 0; u < 100; u++ {
		population[fmt.Sprintf("user-%04d", u)] = 5
	}
	breach := SimulateCellBreach(population, "user-0042")
	if breach.UsersExposed != 1 || breach.RecordsExposed != 5 {
		t.Fatalf("cell breach %+v", breach)
	}
	if none := SimulateCellBreach(population, "nobody"); none.UsersExposed != 0 || none.RecordsExposed != 0 {
		t.Fatalf("breach of unknown cell %+v", none)
	}
}

func BenchmarkCentralVaultRead(b *testing.B) {
	v, _ := NewCentralVault()
	set := policy.NewSet("u")
	_ = set.Add(policy.Rule{ID: "self", Effect: policy.EffectAllow, SubjectIDs: []string{"u"}})
	v.SetPolicy("u", set)
	_ = v.Store("u", "d", "note", bytes.Repeat([]byte("x"), 1024), now)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Read("u", "d", "u", now); err != nil {
			b.Fatal(err)
		}
	}
}

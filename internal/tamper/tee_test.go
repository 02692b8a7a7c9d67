package tamper

import (
	"strings"
	"testing"
	"time"

	"trustedcells/internal/crypto"
)

func newUnlockedTEE(t *testing.T, class HardwareClass) *TEE {
	t.Helper()
	tee := New(DefaultProfile(class))
	if err := tee.Provision("1234"); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if err := tee.Unlock("1234"); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	return tee
}

func TestHardwareClassString(t *testing.T) {
	classes := []HardwareClass{ClassSecureToken, ClassSecureMCU, ClassTrustZonePhone, ClassHomeGateway, ClassCloudServer}
	seen := make(map[string]bool)
	for _, c := range classes {
		s := c.String()
		if s == "" || strings.Contains(s, "hardware-class(") {
			t.Fatalf("missing name for class %d: %q", c, s)
		}
		if seen[s] {
			t.Fatalf("duplicate class name %q", s)
		}
		seen[s] = true
	}
	if !strings.Contains(HardwareClass(99).String(), "99") {
		t.Fatal("unknown class should include its numeric value")
	}
}

func TestDefaultProfilesOrdering(t *testing.T) {
	token := DefaultProfile(ClassSecureToken)
	phone := DefaultProfile(ClassTrustZonePhone)
	cloud := DefaultProfile(ClassCloudServer)
	if !(token.RAMBudget < phone.RAMBudget && phone.RAMBudget < cloud.RAMBudget) {
		t.Fatal("RAM budgets should grow from token to cloud")
	}
	if !(token.CPUFactor > phone.CPUFactor && phone.CPUFactor > cloud.CPUFactor) {
		t.Fatal("CPU factor should shrink from token to cloud")
	}
}

func TestProvisionAndUnlock(t *testing.T) {
	tee := New(DefaultProfile(ClassSecureMCU))
	if !tee.Locked() {
		t.Fatal("unprovisioned TEE should report locked")
	}
	if _, err := tee.KeyHierarchy(); err != ErrNotProvisioned {
		t.Fatalf("expected ErrNotProvisioned, got %v", err)
	}
	if err := tee.Provision("pin"); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if err := tee.Provision("pin"); err == nil {
		t.Fatal("double provisioning accepted")
	}
	if _, err := tee.KeyHierarchy(); err != ErrLocked {
		t.Fatalf("expected ErrLocked, got %v", err)
	}
	if err := tee.Unlock("wrong"); err != ErrBadPIN {
		t.Fatalf("expected ErrBadPIN, got %v", err)
	}
	if err := tee.Unlock("pin"); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if tee.Locked() {
		t.Fatal("TEE should be unlocked")
	}
	if _, err := tee.KeyHierarchy(); err != nil {
		t.Fatalf("KeyHierarchy after unlock: %v", err)
	}
	tee.Lock()
	if !tee.Locked() {
		t.Fatal("Lock did not relock the TEE")
	}
}

func TestBrickAfterRepeatedFailures(t *testing.T) {
	tee := New(DefaultProfile(ClassSecureToken))
	if err := tee.Provision("secret"); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < MaxPINFailures; i++ {
		lastErr = tee.Unlock("nope")
	}
	if lastErr != ErrBricked {
		t.Fatalf("expected ErrBricked on failure %d, got %v", MaxPINFailures, lastErr)
	}
	if !tee.bricked {
		t.Fatal("TEE should be bricked")
	}
	if err := tee.Unlock("secret"); err != ErrBricked {
		t.Fatalf("bricked TEE accepted correct PIN: %v", err)
	}
}

func TestUnlockResetsFailureCount(t *testing.T) {
	tee := New(DefaultProfile(ClassSecureToken))
	_ = tee.Provision("secret")
	_ = tee.Unlock("bad")
	if err := tee.Unlock("secret"); err != nil {
		t.Fatalf("Unlock after one failure: %v", err)
	}
	_ = tee.Unlock("bad")
	_ = tee.Unlock("bad")
	if tee.bricked {
		t.Fatal("TEE bricked although failures were interleaved with success")
	}
}

func TestProvisionDeterministic(t *testing.T) {
	a := New(DefaultProfile(ClassHomeGateway))
	b := New(DefaultProfile(ClassHomeGateway))
	if err := a.ProvisionDeterministic([]byte("alice"), "p"); err != nil {
		t.Fatal(err)
	}
	if err := b.ProvisionDeterministic([]byte("alice"), "p"); err != nil {
		t.Fatal(err)
	}
	_ = a.Unlock("p")
	_ = b.Unlock("p")
	ia, _ := a.Identity()
	ib, _ := b.Identity()
	if !ia.Equal(ib) {
		t.Fatal("same seed produced different identities")
	}
	c := New(DefaultProfile(ClassHomeGateway))
	if err := c.ProvisionDeterministic(nil, "p"); err == nil {
		t.Fatal("empty seed accepted")
	}
}

func TestSealAndUseSecret(t *testing.T) {
	tee := newUnlockedTEE(t, ClassSecureMCU)
	key, _ := crypto.NewSymmetricKey()
	if err := tee.SealSecret("doc-key", key); err != nil {
		t.Fatalf("SealSecret: %v", err)
	}
	if _, ok := tee.sealed["doc-key"]; !ok {
		t.Fatal("sealed secret not found")
	}
	var used bool
	err := tee.UseSecret("doc-key", func(k crypto.SymmetricKey) error {
		used = true
		if k != key {
			t.Fatal("sealed key differs from the one sealed")
		}
		return nil
	})
	if err != nil || !used {
		t.Fatalf("UseSecret: err=%v used=%v", err, used)
	}
	if err := tee.UseSecret("missing", func(crypto.SymmetricKey) error { return nil }); err != ErrNoSuchSecret {
		t.Fatalf("expected ErrNoSuchSecret, got %v", err)
	}
	tee.Lock()
	if err := tee.UseSecret("doc-key", func(crypto.SymmetricKey) error { return nil }); err != ErrLocked {
		t.Fatalf("locked TEE allowed secret use: %v", err)
	}
}

func TestMonotonicCounters(t *testing.T) {
	tee := newUnlockedTEE(t, ClassSecureMCU)
	v1, err := tee.CounterIncrement("vault-version")
	if err != nil || v1 != 1 {
		t.Fatalf("first increment = %d, %v", v1, err)
	}
	v2, _ := tee.CounterIncrement("vault-version")
	if v2 != 2 {
		t.Fatalf("second increment = %d", v2)
	}
	if v, _ := tee.CounterValue("vault-version"); v != 2 {
		t.Fatalf("CounterValue = %d, want 2", v)
	}
	if err := tee.CounterAdvanceTo("vault-version", 10); err != nil {
		t.Fatalf("CounterAdvanceTo forward: %v", err)
	}
	if err := tee.CounterAdvanceTo("vault-version", 5); err != ErrCounterRewind {
		t.Fatalf("rewind accepted: %v", err)
	}
	if v, _ := tee.CounterValue("other"); v != 0 {
		t.Fatalf("fresh counter = %d", v)
	}
}

func TestSignAndIdentity(t *testing.T) {
	tee := newUnlockedTEE(t, ClassTrustZonePhone)
	msg := []byte("monthly statistics for the distribution company")
	sig, err := tee.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	id, err := tee.Identity()
	if err != nil {
		t.Fatalf("Identity: %v", err)
	}
	if err := id.Verify(msg, sig); err != nil {
		t.Fatalf("signature does not verify: %v", err)
	}
}

func TestCostMeter(t *testing.T) {
	var m CostMeter
	m.ChargeCPU(100)
	m.ChargeRead(3)
	m.ChargeWrite(2)
	cpu, r, w := m.Snapshot()
	if cpu != 100 || r != 3 || w != 2 {
		t.Fatalf("unexpected snapshot %v %v %v", cpu, r, w)
	}
	token := DefaultProfile(ClassSecureToken)
	cloud := DefaultProfile(ClassCloudServer)
	if m.SimulatedTime(token) <= m.SimulatedTime(cloud) {
		t.Fatal("the same work should take longer on a token than in the cloud")
	}
	if m.Energy(token) <= m.Energy(cloud) {
		t.Fatal("the same writes should cost more energy on a token")
	}
	m.Reset()
	if d := m.SimulatedTime(token); d != 0 {
		t.Fatalf("after Reset simulated time = %v", d)
	}
}

func TestSimulatedTimeComponents(t *testing.T) {
	p := Profile{CPUFactor: 1, ReadLatency: time.Millisecond, WriteLatency: 2 * time.Millisecond}
	var m CostMeter
	m.ChargeCPU(500)
	m.ChargeRead(1)
	m.ChargeWrite(1)
	want := 500*time.Nanosecond + time.Millisecond + 2*time.Millisecond
	if got := m.SimulatedTime(p); got != want {
		t.Fatalf("SimulatedTime = %v, want %v", got, want)
	}
}

package cloud

import (
	"bytes"
	"fmt"
	"testing"
)

func TestPutGetDeleteBlob(t *testing.T) {
	m := NewMemory()
	v, err := m.PutBlob("alice/vault/doc-1", []byte("ciphertext"))
	if err != nil || v != 1 {
		t.Fatalf("PutBlob: v=%d err=%v", v, err)
	}
	b, err := m.GetBlob("alice/vault/doc-1")
	if err != nil {
		t.Fatalf("GetBlob: %v", err)
	}
	if !bytes.Equal(b.Data, []byte("ciphertext")) || b.Version != 1 {
		t.Fatalf("blob %+v", b)
	}
	// Update bumps version.
	v, _ = m.PutBlob("alice/vault/doc-1", []byte("ciphertext-v2"))
	if v != 2 {
		t.Fatalf("second version = %d", v)
	}
	if err := m.DeleteBlob("alice/vault/doc-1"); err != nil {
		t.Fatalf("DeleteBlob: %v", err)
	}
	if _, err := m.GetBlob("alice/vault/doc-1"); err != ErrBlobNotFound {
		t.Fatalf("after delete: %v", err)
	}
	if err := m.DeleteBlob("never-existed"); err != nil {
		t.Fatalf("delete idempotency: %v", err)
	}
}

func TestGetBlobReturnsCopy(t *testing.T) {
	m := NewMemory()
	_, _ = m.PutBlob("b", []byte("data"))
	b, _ := m.GetBlob("b")
	b.Data[0] = 'X'
	again, _ := m.GetBlob("b")
	if again.Data[0] == 'X' {
		t.Fatal("GetBlob exposes shared storage")
	}
}

func TestListBlobs(t *testing.T) {
	m := NewMemory()
	for i := 0; i < 5; i++ {
		_, _ = m.PutBlob(fmt.Sprintf("alice/doc-%d", i), []byte("x"))
	}
	_, _ = m.PutBlob("bob/doc-0", []byte("x"))
	names, err := m.ListBlobs("alice/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("ListBlobs = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
	all, _ := m.ListBlobs("")
	if len(all) != 6 {
		t.Fatalf("all blobs = %d", len(all))
	}
}

func TestMailboxes(t *testing.T) {
	m := NewMemory()
	for i := 0; i < 3; i++ {
		err := m.Send(Message{From: "alice", To: "bob", Kind: "share-offer", Body: []byte(fmt.Sprintf("m%d", i))})
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// FIFO order, bounded receive.
	msgs, err := m.Receive("bob", 2)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("Receive: %d %v", len(msgs), err)
	}
	if string(msgs[0].Body) != "m0" || string(msgs[1].Body) != "m1" {
		t.Fatalf("wrong order: %q %q", msgs[0].Body, msgs[1].Body)
	}
	if msgs[0].ID == "" || msgs[0].Sent.IsZero() {
		t.Fatal("message metadata not filled")
	}
	msgs, _ = m.Receive("bob", 0)
	if len(msgs) != 1 {
		t.Fatalf("remaining = %d", len(msgs))
	}
	msgs, _ = m.Receive("bob", 10)
	if len(msgs) != 0 {
		t.Fatal("mailbox should be empty")
	}
	msgs, _ = m.Receive("nobody", 10)
	if len(msgs) != 0 {
		t.Fatal("unknown recipient should have empty mailbox")
	}
}

func TestStatsCounters(t *testing.T) {
	m := NewMemory()
	_, _ = m.PutBlob("a", []byte("12345"))
	_, _ = m.GetBlob("a")
	_, _ = m.ListBlobs("")
	_ = m.DeleteBlob("a")
	_ = m.Send(Message{To: "x"})
	_, _ = m.Receive("x", 1)
	st := m.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Lists != 1 || st.Deletes != 1 || st.Sends != 1 || st.Receives != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesStored != 5 {
		t.Fatalf("BytesStored = %d", st.BytesStored)
	}
}

// TestOutage drills a provider outage the one way the package injects it,
// Faulty.SetDown: every call fails with ErrUnavailable without reaching the
// store, and the store serves again once the switch is off.
func TestOutage(t *testing.T) {
	m := NewMemory()
	f := NewFaulty(m, FaultyOptions{})
	f.SetDown(true)
	if _, err := f.PutBlob("a", []byte("x")); err != ErrUnavailable {
		t.Fatalf("put during outage: %v", err)
	}
	if _, err := f.GetBlob("a"); err != ErrUnavailable {
		t.Fatalf("get during outage: %v", err)
	}
	if err := f.Send(Message{To: "x"}); err != ErrUnavailable {
		t.Fatalf("send during outage: %v", err)
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("calls reached the store during the outage: %+v", st)
	}
	f.SetDown(false)
	if _, err := f.PutBlob("a", []byte("x")); err != nil {
		t.Fatalf("put after outage: %v", err)
	}
}

func TestTamperingAdversary(t *testing.T) {
	m := NewAdversary(NewMemory(), AdversaryConfig{Mode: Tampering, TamperRate: 1.0, Seed: 7})
	original := []byte("sealed envelope bytes")
	_, _ = m.PutBlob("victim", original)
	b, err := m.GetBlob("victim")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Data, original) {
		t.Fatal("tampering adversary did not modify the blob")
	}
	if m.Stats().TamperedBlobs != 1 {
		t.Fatalf("TamperedBlobs = %d", m.Stats().TamperedBlobs)
	}
}

func TestReplayingAdversary(t *testing.T) {
	m := NewAdversary(NewMemory(), AdversaryConfig{Mode: Replaying, ReplayRate: 1.0, Seed: 7})
	_, _ = m.PutBlob("doc", []byte("version-1"))
	_, _ = m.PutBlob("doc", []byte("version-2"))
	b, err := m.GetBlob("doc")
	if err != nil {
		t.Fatal(err)
	}
	if string(b.Data) != "version-1" {
		t.Fatalf("expected replayed stale version, got %q", b.Data)
	}
	if m.Stats().ReplayedBlobs != 1 {
		t.Fatalf("ReplayedBlobs = %d", m.Stats().ReplayedBlobs)
	}
	// Before any update there is nothing to replay.
	m2 := NewAdversary(NewMemory(), AdversaryConfig{Mode: Replaying, ReplayRate: 1.0, Seed: 7})
	_, _ = m2.PutBlob("doc", []byte("only"))
	b, _ = m2.GetBlob("doc")
	if string(b.Data) != "only" {
		t.Fatal("replay with no history should return current version")
	}
}

func TestDroppingAdversary(t *testing.T) {
	m := NewAdversary(NewMemory(), AdversaryConfig{Mode: Dropping, DropRate: 1.0, Seed: 7})
	if _, err := m.PutBlob("doc", []byte("x")); err != nil {
		t.Fatalf("drop adversary should pretend success: %v", err)
	}
	if _, err := m.GetBlob("doc"); err != ErrBlobNotFound {
		t.Fatalf("dropped blob should be missing: %v", err)
	}
	_ = m.Send(Message{To: "bob", Body: []byte("x")})
	msgs, _ := m.Receive("bob", 10)
	if len(msgs) != 0 {
		t.Fatal("dropped message delivered")
	}
	st := m.Stats()
	if st.DroppedBlobs != 1 || st.DroppedMessages != 1 {
		t.Fatalf("drop stats %+v", st)
	}
}

func TestHonestButCuriousObservations(t *testing.T) {
	m := NewAdversary(NewMemory(), AdversaryConfig{Mode: HonestButCurious, Seed: 7})
	payload := []byte("sealed bytes the provider can stare at")
	_, _ = m.PutBlob("doc", payload)
	obs := m.Observations()
	if len(obs) != 1 || !bytes.Equal(obs[0], payload) {
		t.Fatalf("observations %v", obs)
	}
	// Mutating the returned observation must not affect the stored one.
	obs[0][0] = 'X'
	if bytes.Equal(m.Observations()[0], obs[0]) {
		t.Fatal("Observations exposes internal state")
	}
	if m.Stats().ObservedBlobs != 1 {
		t.Fatalf("ObservedBlobs = %d", m.Stats().ObservedBlobs)
	}
}

func TestAdversaryModeString(t *testing.T) {
	modes := []AdversaryMode{Honest, HonestButCurious, Tampering, Replaying, Dropping, Rollback, Fork}
	seen := map[string]bool{}
	for _, mode := range modes {
		s := mode.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	if AdversaryMode(42).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

package cloud

import (
	"bytes"
	"fmt"
	"testing"
)

// adversaryBackends are the honest substrates the wrapper is exercised over:
// the whole point of lifting the adversary out of Memory is that the durable
// store faces the same attacks.
func adversaryBackends(t *testing.T) map[string]func(t *testing.T) Service {
	return map[string]func(t *testing.T) Service{
		"memory": func(t *testing.T) Service { return NewMemory() },
		"durable": func(t *testing.T) Service {
			d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 2})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			t.Cleanup(func() { _ = d.Close() })
			return d
		},
	}
}

func TestRollbackAdversary(t *testing.T) {
	for name, mk := range adversaryBackends(t) {
		t.Run(name, func(t *testing.T) {
			a := NewAdversary(mk(t), AdversaryConfig{Mode: Rollback, RollbackRate: 1.0, Seed: 7})
			if _, err := a.PutBlob("doc", []byte("version-1")); err != nil {
				t.Fatal(err)
			}
			if _, err := a.PutBlob("doc", []byte("version-2")); err != nil {
				t.Fatal(err)
			}
			b, err := a.GetBlob("doc")
			if err != nil {
				t.Fatal(err)
			}
			// The defining property of the rollback attack: stale bytes under
			// the current version number, so version checks cannot catch it.
			if b.Version != 2 {
				t.Fatalf("rollback must keep the current version, got %d", b.Version)
			}
			if string(b.Data) != "version-1" {
				t.Fatalf("expected rolled-back contents, got %q", b.Data)
			}
			if a.Stats().RolledBackBlobs == 0 {
				t.Fatal("RolledBackBlobs not counted")
			}
			// The conditional read path is attacked identically.
			blobs, err := a.GetBlobsIf([]CondGet{{Name: "doc", IfNewer: 0}})
			if err != nil {
				t.Fatal(err)
			}
			if blobs[0].Version != 2 || string(blobs[0].Data) != "version-1" {
				t.Fatalf("conditional read not rolled back: %+v", blobs[0])
			}
			// A blob with no history cannot be rolled back.
			if _, err := a.PutBlob("fresh", []byte("only")); err != nil {
				t.Fatal(err)
			}
			if b, _ := a.GetBlob("fresh"); string(b.Data) != "only" {
				t.Fatalf("no-history blob mangled: %q", b.Data)
			}
		})
	}
}

func TestForkAdversary(t *testing.T) {
	for name, mk := range adversaryBackends(t) {
		t.Run(name, func(t *testing.T) {
			a := NewAdversary(mk(t), AdversaryConfig{Mode: Honest, Seed: 7})
			if _, err := a.PutBlob("doc", []byte("base")); err != nil {
				t.Fatal(err)
			}
			a.SetMode(Fork)
			va, vb := a.ClientView("alice"), a.ClientView("bob")

			// Alice writes on her branch; Bob still sees the fork point.
			v, err := va.PutBlob("doc", []byte("alice-1"))
			if err != nil || v != 2 {
				t.Fatalf("alice put: v=%d err=%v", v, err)
			}
			if b, _ := vb.GetBlob("doc"); string(b.Data) != "base" || b.Version != 1 {
				t.Fatalf("bob crossed into alice's branch: %+v", b)
			}
			// Bob writes too: both branches now claim version 2 of doc, the
			// equivocation an authenticated catalog convicts.
			if v, _ := vb.PutBlob("doc", []byte("bob-1")); v != 2 {
				t.Fatalf("bob's branch version = %d", v)
			}
			if b, _ := va.GetBlob("doc"); string(b.Data) != "alice-1" {
				t.Fatalf("alice's view polluted: %q", b.Data)
			}
			if b, _ := vb.GetBlob("doc"); string(b.Data) != "bob-1" {
				t.Fatalf("bob's view polluted: %q", b.Data)
			}
			// The backend froze at the fork point.
			if b, _ := a.Inner().GetBlob("doc"); string(b.Data) != "base" {
				t.Fatalf("backend advanced during fork: %q", b.Data)
			}
			// Conditional reads honour the branch's own version numbering.
			blobs, err := vb.GetBlobsIf([]CondGet{{Name: "doc", IfNewer: 2}})
			if err != nil {
				t.Fatal(err)
			}
			if blobs[0].Version != 2 || blobs[0].Data != nil {
				t.Fatalf("unadvanced conditional read shipped data: %+v", blobs[0])
			}
			if a.Stats().ForkedBlobs == 0 {
				t.Fatal("ForkedBlobs not counted")
			}

			// Healing the fork flushes the winner and drops every branch:
			// Bob's acknowledged write vanished from history, which is exactly
			// the view-crossing the sync layer's freshness audit detects.
			if err := a.EndFork("alice"); err != nil {
				t.Fatal(err)
			}
			if a.Mode() != Honest {
				t.Fatalf("mode after EndFork = %v", a.Mode())
			}
			if b, _ := a.Inner().GetBlob("doc"); string(b.Data) != "alice-1" {
				t.Fatalf("winner branch not flushed: %q", b.Data)
			}
			if b, _ := vb.GetBlob("doc"); string(b.Data) != "alice-1" {
				t.Fatalf("bob still sees his dead branch: %q", b.Data)
			}
		})
	}
}

// TestAdversaryForkViewsDeleteAndList: under Fork every operation of a client
// view stays in that view's branch. A view lists what it wrote; its delete
// hides the name from its own reads and listings only, even for a blob
// written before the fork; a later put in the branch reads back; and EndFork
// flushes the winner's deletes along with its writes.
func TestAdversaryForkViewsDeleteAndList(t *testing.T) {
	for name, mk := range adversaryBackends(t) {
		t.Run(name, func(t *testing.T) {
			a := NewAdversary(mk(t), AdversaryConfig{Mode: Honest, Seed: 7})
			if _, err := a.PutBlob("x", []byte("base")); err != nil {
				t.Fatal(err)
			}
			a.SetMode(Fork)
			alice, bob := a.ClientView("alice"), a.ClientView("bob")
			list := func(svc Service) string {
				t.Helper()
				names, err := svc.ListBlobs("")
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(names)
			}

			if _, err := bob.PutBlob("y", []byte("bob-y")); err != nil {
				t.Fatal(err)
			}
			if got := list(bob); got != "[x y]" {
				t.Fatalf("bob lists %s after writing y, want [x y]", got)
			}
			if got := list(alice); got != "[x]" {
				t.Fatalf("alice lists %s, want [x]: bob's write crossed branches", got)
			}

			// Bob deletes the pre-fork blob: gone for him, there for Alice
			// and in the frozen backend.
			if err := bob.DeleteBlob("x"); err != nil {
				t.Fatal(err)
			}
			if b, err := bob.GetBlob("x"); err != ErrBlobNotFound {
				t.Fatalf("bob reads deleted x: %+v %v", b, err)
			}
			if blobs, err := bob.GetBlobsIf([]CondGet{{Name: "x"}}); err != nil || blobs[0].Version != 0 {
				t.Fatalf("bob's conditional read of deleted x: %+v %v", blobs, err)
			}
			if got := list(bob); got != "[y]" {
				t.Fatalf("bob lists %s after deleting x, want [y]", got)
			}
			if b, err := alice.GetBlob("x"); err != nil || string(b.Data) != "base" {
				t.Fatalf("alice lost x to bob's delete: %+v %v", b, err)
			}
			if b, err := a.Inner().GetBlob("x"); err != nil || string(b.Data) != "base" {
				t.Fatalf("backend moved during fork: %+v %v", b, err)
			}

			// A put after the delete reads back in bob's branch, restarting
			// the version count like a store does after a delete.
			if v, err := bob.PutBlob("x", []byte("bob-x")); err != nil || v != 1 {
				t.Fatalf("bob re-put x: v=%d err=%v", v, err)
			}
			if b, err := bob.GetBlob("x"); err != nil || string(b.Data) != "bob-x" {
				t.Fatalf("bob reads %+v %v after re-put", b, err)
			}
			if got := list(bob); got != "[x y]" {
				t.Fatalf("bob lists %s after re-put, want [x y]", got)
			}

			// Bob deletes y again and wins: the backend takes his deletes too.
			if err := bob.DeleteBlob("y"); err != nil {
				t.Fatal(err)
			}
			if err := a.EndFork("bob"); err != nil {
				t.Fatal(err)
			}
			if got := list(a.Inner()); got != "[x]" {
				t.Fatalf("backend lists %s after EndFork(bob), want [x]", got)
			}
			if b, _ := alice.GetBlob("x"); string(b.Data) != "bob-x" {
				t.Fatalf("alice reads %q after the heal, want bob's x", b.Data)
			}
		})
	}
}

func TestDroppingAdversaryOverDurable(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 2})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	a := NewAdversary(d, AdversaryConfig{Mode: Dropping, DropRate: 1.0, Seed: 7})
	v, err := a.PutBlob("doc", []byte("x"))
	if err != nil || v != 1 {
		t.Fatalf("drop adversary should pretend success: v=%d err=%v", v, err)
	}
	if _, err := a.GetBlob("doc"); err != ErrBlobNotFound {
		t.Fatalf("dropped blob should be missing from the durable store: %v", err)
	}
	if a.Stats().DroppedBlobs != 1 {
		t.Fatalf("DroppedBlobs = %d", a.Stats().DroppedBlobs)
	}
}

func TestAdversaryDroppedVersionsStayPlausible(t *testing.T) {
	// The invented acknowledgements continue the real version sequence, so a
	// client comparing acks to later reads sees a regression only because the
	// data is missing — not because the numbers are absurd.
	m := NewMemory()
	if _, err := m.PutBlob("doc", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	a := NewAdversary(m, AdversaryConfig{Mode: Dropping, DropRate: 1.0, Seed: 7})
	if v, _ := a.PutBlob("doc", []byte("v2")); v != 2 {
		t.Fatalf("first dropped ack = %d, want 2", v)
	}
	if v, _ := a.PutBlob("doc", []byte("v3")); v != 3 {
		t.Fatalf("second dropped ack = %d, want 3", v)
	}
	if b, _ := a.GetBlob("doc"); b.Version != 1 || string(b.Data) != "v1" {
		t.Fatalf("backend should still hold v1: %+v", b)
	}
}

func TestAdversaryStatsMergeAndBatches(t *testing.T) {
	a := NewAdversary(NewMemory(), AdversaryConfig{Mode: Honest, Seed: 1})
	puts := []BlobPut{{Name: "a", Data: []byte("1")}, {Name: "b", Data: []byte("2")}}
	versions, err := a.PutBlobs(puts)
	if err != nil || versions[0] != 1 || versions[1] != 1 {
		t.Fatalf("PutBlobs: %v %v", versions, err)
	}
	blobs, err := a.GetBlobs([]string{"a", "b", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blobs[0].Data, []byte("1")) || !bytes.Equal(blobs[1].Data, []byte("2")) || blobs[2].Version != 0 {
		t.Fatalf("GetBlobs: %+v", blobs)
	}
	st := a.Stats()
	if st.Puts != 2 || st.BytesStored != 2 {
		t.Fatalf("inner counters not merged: %+v", st)
	}
}

// callCounter is a backend that counts the calls it serves.
type callCounter struct {
	*Memory
	calls int
}

func (c *callCounter) GetBlob(name string) (Blob, error) {
	c.calls++
	return c.Memory.GetBlob(name)
}

func (c *callCounter) PutBlobs(puts []BlobPut) ([]int, error) {
	c.calls++
	return c.Memory.PutBlobs(puts)
}

func (c *callCounter) GetBlobs(names []string) ([]Blob, error) {
	c.calls++
	return c.Memory.GetBlobs(names)
}

func (c *callCounter) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	c.calls++
	return c.Memory.GetBlobsIf(gets)
}

// TestAdversaryBatchesMakeOneInnerCall pins that the wrapper resolves the
// names a batch needs from the backend in one call, not one per name: a
// Fork-mode read of names the branch never wrote, and a Dropping put of names
// the wrapper never saw.
func TestAdversaryBatchesMakeOneInnerCall(t *testing.T) {
	const n = 16
	names := make([]string, n)
	puts := make([]BlobPut, n)
	for i := range names {
		names[i] = fmt.Sprintf("blob-%02d", i)
		puts[i] = BlobPut{Name: names[i], Data: []byte(names[i])}
	}
	inner := &callCounter{Memory: NewMemory()}
	if _, err := inner.PutBlobs(puts); err != nil {
		t.Fatal(err)
	}
	fork := NewAdversary(inner, AdversaryConfig{Mode: Fork, Seed: 1})
	calls := []struct {
		name string
		run  func() error
	}{
		{"fork GetBlobs", func() error {
			blobs, err := fork.ClientView("phone").GetBlobs(names)
			if err == nil && (blobs[n-1].Version != 1 || string(blobs[n-1].Data) != names[n-1]) {
				t.Errorf("fork read served %+v", blobs[n-1])
			}
			return err
		}},
		{"fork GetBlobsIf", func() error {
			_, err := fork.ClientView("phone").GetBlobsIf(unconditional(names))
			return err
		}},
		{"dropping PutBlobs", func() error {
			drop := NewAdversary(inner, AdversaryConfig{Mode: Dropping, DropRate: 1, Seed: 1})
			versions, err := drop.PutBlobs(puts)
			if err == nil && versions[0] != 2 {
				t.Errorf("dropped put acknowledged version %d, want 2", versions[0])
			}
			return err
		}},
	}
	for _, c := range calls {
		inner.calls = 0
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if inner.calls != 1 {
			t.Errorf("%s of %d names made %d backend calls, want 1", c.name, n, inner.calls)
		}
	}
}

package cloud

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestPutBlobsVersionsInOrder(t *testing.T) {
	m := NewMemory()
	if _, err := m.PutBlob("warm", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	puts := []BlobPut{
		{Name: "a", Data: []byte("aa")},
		{Name: "warm", Data: []byte("v2")},
		{Name: "b", Data: []byte("bb")},
	}
	versions, err := m.PutBlobs(puts)
	if err != nil {
		t.Fatalf("PutBlobs: %v", err)
	}
	if len(versions) != 3 || versions[0] != 1 || versions[1] != 2 || versions[2] != 1 {
		t.Fatalf("versions = %v", versions)
	}
	b, err := m.GetBlob("warm")
	if err != nil || string(b.Data) != "v2" {
		t.Fatalf("after batch put: %v %v", b, err)
	}
}

func TestGetBlobsMissingYieldZeroBlob(t *testing.T) {
	m := NewMemory()
	_, _ = m.PutBlob("present", []byte("here"))
	blobs, err := m.GetBlobs([]string{"missing", "present", "also-missing"})
	if err != nil {
		t.Fatalf("GetBlobs: %v", err)
	}
	if len(blobs) != 3 {
		t.Fatalf("blobs = %d", len(blobs))
	}
	if blobs[0].Version != 0 || blobs[2].Version != 0 {
		t.Fatalf("missing blobs should be zero: %+v", blobs)
	}
	if blobs[1].Version != 1 || !bytes.Equal(blobs[1].Data, []byte("here")) {
		t.Fatalf("present blob: %+v", blobs[1])
	}
}

func TestBatchAcrossManyShards(t *testing.T) {
	m := NewMemoryShards(8)
	n := 200
	puts := make([]BlobPut, n)
	names := make([]string, n)
	for i := range puts {
		names[i] = fmt.Sprintf("vault/blob-%04d", i)
		puts[i] = BlobPut{Name: names[i], Data: []byte(names[i])}
	}
	if _, err := m.PutBlobs(puts); err != nil {
		t.Fatal(err)
	}
	blobs, err := m.GetBlobs(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blobs {
		if !bytes.Equal(b.Data, []byte(names[i])) {
			t.Fatalf("blob %d round-trip: %q", i, b.Data)
		}
	}
	st := m.Stats()
	if st.Puts != int64(n) || st.Gets != int64(n) {
		t.Fatalf("batch ops must count per blob: %+v", st)
	}
}

func TestGetBlobsIfSkipsUnadvanced(t *testing.T) {
	m := NewMemoryShards(4)
	_, _ = m.PutBlob("shard/0", []byte("v1-0"))
	_, _ = m.PutBlob("shard/1", []byte("v1-1"))
	v2, _ := m.PutBlob("shard/1", []byte("v2-1"))
	blobs, err := m.GetBlobsIf([]CondGet{
		{Name: "shard/0", IfNewer: 1}, // current version 1: not advanced
		{Name: "shard/1", IfNewer: 1}, // current version 2: advanced
		{Name: "missing", IfNewer: 0},
	})
	if err != nil {
		t.Fatalf("GetBlobsIf: %v", err)
	}
	if blobs[0].Version != 1 || blobs[0].Data != nil {
		t.Fatalf("unadvanced blob should ship version only: %+v", blobs[0])
	}
	if blobs[1].Version != v2 || string(blobs[1].Data) != "v2-1" {
		t.Fatalf("advanced blob should ship data: %+v", blobs[1])
	}
	if blobs[2].Version != 0 {
		t.Fatalf("missing blob should be zero: %+v", blobs[2])
	}
	// IfNewer 0 fetches unconditionally.
	blobs, err = m.GetBlobsIf([]CondGet{{Name: "shard/0"}})
	if err != nil || string(blobs[0].Data) != "v1-0" {
		t.Fatalf("unconditional fetch: %+v %v", blobs, err)
	}
}

// TestShardedMemoryConcurrentStress hammers every operation of the sharded
// store from many goroutines. Run under -race (the CI does) it is the
// regression test for the lock-striping refactor; without -race it still
// verifies the final state and counters add up.
func TestShardedMemoryConcurrentStress(t *testing.T) {
	m := NewMemory()
	const (
		workers      = 16
		blobsPerWork = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := fmt.Sprintf("cell-%02d", w)
			for i := 0; i < blobsPerWork; i++ {
				name := fmt.Sprintf("%s/vault/doc-%03d", prefix, i)
				if _, err := m.PutBlob(name, []byte(name)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%4 == 0 {
					puts := []BlobPut{
						{Name: name, Data: []byte("v2")},
						{Name: name + "-side", Data: []byte("side")},
					}
					if _, err := m.PutBlobs(puts); err != nil {
						t.Errorf("batch put: %v", err)
						return
					}
				}
				if _, err := m.GetBlob(name); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if _, err := m.GetBlobs([]string{name, "nope"}); err != nil {
					t.Errorf("batch get: %v", err)
					return
				}
				if err := m.Send(Message{From: prefix, To: fmt.Sprintf("cell-%02d", (w+1)%workers), Body: []byte("ping")}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				if _, err := m.Receive(prefix, 4); err != nil {
					t.Errorf("receive: %v", err)
					return
				}
				if i%8 == 0 {
					if _, err := m.ListBlobs(prefix); err != nil {
						t.Errorf("list: %v", err)
						return
					}
					if err := m.DeleteBlob(name + "-gone"); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := m.Stats()
	wantPuts := int64(workers * (blobsPerWork + 2*(blobsPerWork/4)))
	if st.Puts != wantPuts {
		t.Fatalf("Puts = %d, want %d", st.Puts, wantPuts)
	}
	if st.Sends != int64(workers*blobsPerWork) {
		t.Fatalf("Sends = %d", st.Sends)
	}
	names, err := m.ListBlobs("")
	if err != nil {
		t.Fatal(err)
	}
	// Every worker left blobsPerWork main blobs plus blobsPerWork/4 side blobs.
	want := workers * (blobsPerWork + blobsPerWork/4)
	if len(names) != want {
		t.Fatalf("final blob count = %d, want %d", len(names), want)
	}
}

func TestSingleShardMatchesDefault(t *testing.T) {
	for _, shards := range []int{1, 4, DefaultShards} {
		m := NewMemoryShards(shards)
		if len(m.shards) != shards {
			t.Fatalf("ShardCount = %d, want %d", len(m.shards), shards)
		}
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("doc-%02d", i)
			if _, err := m.PutBlob(name, []byte(name)); err != nil {
				t.Fatal(err)
			}
		}
		names, err := m.ListBlobs("")
		if err != nil || len(names) != 50 {
			t.Fatalf("shards=%d: list %d %v", shards, len(names), err)
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Fatalf("shards=%d: names not sorted", shards)
			}
		}
	}
}

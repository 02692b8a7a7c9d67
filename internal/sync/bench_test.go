package sync

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

// vaultCatalog makes n documents shaped like a cell's ingested catalog: half
// series readings in tag partitions of 500, half opaque notes.
func vaultCatalog(n int) []*datamodel.Document {
	docs := make([]*datamodel.Document, n)
	for i := range docs {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		hash := hex.EncodeToString(sum[:])
		d := &datamodel.Document{
			Owner: "cell-0000", Class: datamodel.ClassAuthored, Type: "note", Title: "note",
			CreatedAt: t0.Add(time.Duration(i) * time.Second), Size: 1024,
			ContentHash: hash, KeyFingerprint: hash[:16],
		}
		if i%2 == 0 {
			d.Class, d.Type, d.Title = datamodel.ClassSensed, "series", "day"
			d.Keywords = []string{"energy"}
			d.Tags = map[string]string{"home": "p" + strconv.Itoa(i/2/500)}
		}
		d.ID = datamodel.NewDocumentID(d.Owner, d.Type, hash)
		docs[i] = d
	}
	return docs
}

// BenchmarkReplicaSyncRound is one sync round at the benchmark's cell_vault
// shape: two replicas of a 10k-document catalog in 64 shards over an
// in-memory cloud; the gateway changes 24 documents, then the gateway syncs
// and the phone syncs.
func BenchmarkReplicaSyncRound(b *testing.B) {
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		b.Fatal(err)
	}
	svc := cloud.NewMemory()
	gw := NewReplicaShards("user/gateway", "user", key, svc, nil, DefaultShardCount)
	phone := NewReplicaShards("user/phone", "user", key, svc, nil, DefaultShardCount)
	docs := vaultCatalog(10_000)
	for _, d := range docs {
		gw.Upsert(d)
	}
	if err := gw.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := phone.Sync(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 24; j++ {
			d := docs[rng.Intn(len(docs))]
			d.Title = "rev " + strconv.Itoa(i)
			gw.Upsert(d)
		}
		if err := gw.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := phone.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

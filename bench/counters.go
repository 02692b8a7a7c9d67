package main

// Every read of the program's own Stats structs lives in this file, so that
// when they become views over one registry (ROADMAP item 5) the benchmark
// changes here and nowhere else.

import (
	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	syncpkg "trustedcells/internal/sync"
)

// storeCounters is the durable store's engine and cache activity.
type storeCounters struct {
	gets, flushes, compactions       int64
	bloomSkips, cacheHits, cacheMiss int64
	runReads                         int64
	runs                             int
}

func readStore(ds ...*cloud.Durable) storeCounters {
	var c storeCounters
	for _, d := range ds {
		st := d.EngineStats()
		hits, misses, _ := d.CacheStats()
		c.gets += st.Gets
		c.flushes += st.Flushes
		c.compactions += st.Compactions
		c.bloomSkips += st.BloomSkips
		c.runReads += st.RunReads
		c.runs += st.Runs
		c.cacheHits += hits
		c.cacheMiss += misses
	}
	return c
}

func (a storeCounters) since(b storeCounters) storeCounters {
	return storeCounters{
		gets: a.gets - b.gets, flushes: a.flushes - b.flushes,
		compactions: a.compactions - b.compactions,
		bloomSkips:  a.bloomSkips - b.bloomSkips,
		cacheHits:   a.cacheHits - b.cacheHits, cacheMiss: a.cacheMiss - b.cacheMiss,
		runReads: a.runReads - b.runReads, runs: a.runs,
	}
}

// pct is 100 × part / whole, zero when there is no whole.
func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func perUnit(total float64, units int64) float64 {
	if units == 0 {
		return 0
	}
	return total / float64(units)
}

// bloomSkipPct is the share of run lookups the bloom filters answered.
func (c storeCounters) bloomSkipPct() float64 {
	return pct(c.bloomSkips, c.bloomSkips+c.cacheHits+c.cacheMiss)
}

func (c storeCounters) cacheHitPct() float64 { return pct(c.cacheHits, c.cacheHits+c.cacheMiss) }

func readShedUnits(a *cloud.Admission) int64 { return a.AdmissionStats().Shed }

// recovery is what reopening a crashed store had to do.
type recovery struct {
	ms          float64
	replayedOps int
}

func readRecovery(d *cloud.Durable) recovery {
	rec := d.RecoveryStats()
	return recovery{ms: ms(rec.Elapsed), replayedOps: rec.ReplayedOps + rec.JournalOps}
}

// replCounters is the replication layer's repair activity.
type replCounters struct {
	puts, hintsQueued, hintsDrained, readRepairs, quorumFailures int64
}

func readReplication(r *cloud.Replicated) replCounters {
	st := r.ReplicationStats()
	return replCounters{
		puts:        st.Puts,
		hintsQueued: st.HintsQueued, hintsDrained: st.HintsDrained,
		readRepairs: st.ReadRepairs, quorumFailures: st.QuorumFailures,
	}
}

// memoryCounters is what an in-process cloud served.
type memoryCounters struct {
	gets int64 // blobs served
}

func readMemory(m *cloud.Memory) memoryCounters {
	return memoryCounters{gets: m.Stats().Gets}
}

// indexCounters is the catalog planner's work.
type indexCounters struct {
	scanned, matched int64
}

func readIndex(c *core.Cell) indexCounters {
	st := c.Catalog().IndexStats()
	return indexCounters{scanned: st.DocsScanned, matched: st.DocsMatched}
}

// transfer is a replica's cumulative synchronization traffic.
type transfer struct {
	bytes, shards int64
}

func readTransfer(rs ...*syncpkg.Replica) transfer {
	var t transfer
	for _, r := range rs {
		st := r.TransferStats()
		t.bytes += st.Bytes()
		t.shards += st.ShardsPushed + st.ShardsPulled
	}
	return t
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/cloud"
)

// span is one interval at a layer boundary. Spans of one request share ID,
// which is the first blob name of the request: the generator makes it unique
// and every layer below the client sees it (the tenant layer prefixes it, see
// spanID). Parent names the layer whose span caused this one.
type span struct {
	ID     string `json:"id"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// Layer names of the spans the benchmark records.
const (
	layerReq       = "request"          // one generated request, client side, from when it was sent
	layerSeal      = "crypto.seal"      // sealing the request's documents
	layerOpen      = "crypto.open"      // opening and name-checking the fetched documents
	layerCall      = "cloud.frame"      // the client call: codec, loopback, server dispatch, tenant rewrite
	layerAdmission = "cloud.admission"  // entered above Admission
	layerDurable   = "cloud.durable"    // entered above Durable
	layerRepl      = "cloud.replicated" // a call into Replicated
	layerMember    = "cloud.member"     // one member's share of a replicated call
	layerCellCall  = "core"             // a call into core.Cell
	layerQuery     = "query"            // a call into query.Engine
	layerSync      = "sync"             // a call into sync.Replica
	layerCloudMem  = "cloud.memory"     // the in-process cloud under a cell or replica
	spanShards     = 16                 // recorder stripes; spans of one request land in one stripe
	docNamePrefix  = "fleet/"           // every generated blob name starts here
)

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how the untraced phases run the same code.
type recorder struct {
	epoch  time.Time
	shards [spanShards]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) record(id, layer, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	h := uint32(2166136261) // FNV-1a, inline: hash/fnv would allocate per span
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	sh := &r.shards[h%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{ID: id, Layer: layer, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	sh.mu.Unlock()
}

// drain returns every span recorded so far and forgets them.
func (r *recorder) drain() []span {
	var out []span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.spans = nil
		sh.mu.Unlock()
	}
	return out
}

// spanID maps a blob name as a lower layer sees it back to the name the
// generator chose: the tenant layer only ever adds a prefix.
func spanID(name string) string {
	if i := strings.Index(name, docNamePrefix); i > 0 {
		return name[i:]
	}
	return name
}

// byLayer holds one sample set per layer name.
type byLayer map[string]*samples

// p50us is the layer's median in microseconds; zero for a layer that
// recorded nothing.
func (b byLayer) p50us(layer string) float64 {
	if s := b[layer]; s != nil {
		return s.us(0.5)
	}
	return 0
}

// selfTimes groups spans by request and returns, per layer, each span's self
// time: its duration minus the part of its interval that its child spans
// cover. Children may overlap each other (a fan-out) and may outlive their
// parent (a straggler past the quorum); only the covered part of the
// parent's own interval is subtracted. Two requests may share an id (a
// batch is read under the name it was written under), so a child belongs to
// the latest span of its parent layer that was open when the child began.
func selfTimes(spans []span) byLayer {
	byID := make(map[string][]int)
	for i, s := range spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	kids := make([][][2]int64, len(spans))
	for _, group := range byID {
		for _, ci := range group {
			c := spans[ci]
			if c.Parent == "" {
				continue
			}
			parent := -1
			for _, pi := range group {
				p := spans[pi]
				if p.Layer == c.Parent && p.Start <= c.Start && c.Start <= p.End &&
					(parent < 0 || p.Start > spans[parent].Start) {
					parent = pi
				}
			}
			if parent >= 0 {
				kids[parent] = append(kids[parent], [2]int64{c.Start, min(c.End, spans[parent].End)})
			}
		}
	}
	out := make(byLayer)
	for i, p := range spans {
		if out[p.Layer] == nil {
			out[p.Layer] = &samples{}
		}
		out[p.Layer].add(time.Duration(p.End - p.Start - covered(kids[i])))
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// durations returns, per layer, each span's full duration.
func durations(spans []span) byLayer {
	out := make(byLayer)
	for _, s := range spans {
		if out[s.Layer] == nil {
			out[s.Layer] = &samples{}
		}
		out[s.Layer].add(time.Duration(s.End - s.Start))
	}
	return out
}

// writeTrace writes a workload's spans to trace-<workload>.json in the
// results directory.
func writeTrace(cfg *config, workload string, spans []span) error {
	f, err := os.Create(filepath.Join(cfg.results, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// service is what every stack the benchmark builds offers: the cloud API
// with its batched and conditional calls.
type service interface {
	cloud.Service
	PutBlobs(puts []cloud.BlobPut) ([]int, error)
	GetBlobs(names []string) ([]cloud.Blob, error)
	GetBlobsIf(gets []cloud.CondGet) ([]cloud.Blob, error)
}

// spanService records a span around every blob call that passes through it
// and otherwise forwards. It is interposed between two layers of a stack by
// stack.go when a run is traced.
type spanService struct {
	inner  service
	rec    *recorder
	layer  string
	parent string
	// current, when set, holds the id and layer of the one call in progress
	// above this service. A cell or a replica is driven by one goroutine and
	// names its own blobs, so the caller's id cannot be read off the blob
	// name.
	current *atomic.Pointer[spanRef]
}

// spanRef names a span in progress: what its children record as their id
// and parent.
type spanRef struct {
	id, layer string
}

func (s *spanService) around(name string, start time.Time) {
	id, parent := spanID(name), s.parent
	if s.current != nil {
		cur := s.current.Load()
		if cur == nil {
			return // a call outside any traced request (set-up, vault sync)
		}
		id, parent = cur.id, cur.layer
	}
	s.rec.record(id, s.layer, parent, start, time.Now())
}

func (s *spanService) PutBlob(name string, data []byte) (int, error) {
	defer s.around(name, time.Now())
	return s.inner.PutBlob(name, data)
}

func (s *spanService) GetBlob(name string) (cloud.Blob, error) {
	defer s.around(name, time.Now())
	return s.inner.GetBlob(name)
}

func (s *spanService) DeleteBlob(name string) error {
	defer s.around(name, time.Now())
	return s.inner.DeleteBlob(name)
}

func (s *spanService) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	if len(puts) > 0 {
		defer s.around(puts[0].Name, time.Now())
	}
	return s.inner.PutBlobs(puts)
}

func (s *spanService) GetBlobs(names []string) ([]cloud.Blob, error) {
	if len(names) > 0 {
		defer s.around(names[0], time.Now())
	}
	return s.inner.GetBlobs(names)
}

func (s *spanService) GetBlobsIf(gets []cloud.CondGet) ([]cloud.Blob, error) {
	if len(gets) > 0 {
		defer s.around(gets[0].Name, time.Now())
	}
	return s.inner.GetBlobsIf(gets)
}

func (s *spanService) ListBlobs(prefix string) ([]string, error) { return s.inner.ListBlobs(prefix) }
func (s *spanService) Send(msg cloud.Message) error              { return s.inner.Send(msg) }
func (s *spanService) Receive(recipient string, max int) ([]cloud.Message, error) {
	return s.inner.Receive(recipient, max)
}
func (s *spanService) Stats() cloud.Stats { return s.inner.Stats() }

// Package audit implements the accountability subsystem of a trusted cell:
// an append-only, hash-chained audit log of every access and usage decision,
// whose records concerning shared data are pushed, sealed by the cell, "to
// the destination of the originator trusted cell" so that data owners can
// verify how their shared data was used.
package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcells/internal/crypto"
)

// ErrChainBroken reports a log whose hash chain does not verify.
var ErrChainBroken = errors.New("audit: hash chain verification failed")

// Outcome is the decision recorded for an audited event.
type Outcome string

// Outcomes.
const (
	OutcomeAllowed Outcome = "allowed"
	OutcomeDenied  Outcome = "denied"
	OutcomeError   Outcome = "error"
)

// Record is one audited event.
type Record struct {
	// Seq is the position in the log (assigned by Append).
	Seq uint64 `json:"seq"`
	// Time of the event.
	Time time.Time `json:"time"`
	// Actor is the subject that attempted the action.
	Actor string `json:"actor"`
	// Action names the attempted operation (read, share, aggregate, ...).
	Action string `json:"action"`
	// Resource identifies the data concerned.
	Resource string `json:"resource"`
	// Outcome of the reference-monitor decision.
	Outcome Outcome `json:"outcome"`
	// Reason explains the outcome (rule ID, error, ...).
	Reason string `json:"reason"`
	// Originator, when non-empty, identifies the cell that must receive a
	// copy of this record (accountability obligation of shared data).
	Originator string `json:"originator,omitempty"`
	// ChainHead is the hash-chain head after appending this record.
	ChainHead []byte `json:"chain_head"`
}

// Log is a hash-chained audit log. It is kept inside the cell; DestinedTo
// selects the records an originator cell is owed.
type Log struct {
	mu      sync.Mutex
	records []Record
	chain   *crypto.HashChain
}

// NewLog creates an empty audit log.
func NewLog() *Log {
	return &Log{chain: crypto.NewHashChain()}
}

// payload produces the canonical bytes that are chained for a record (the
// chain head itself is excluded).
func payload(r Record) []byte {
	clone := r
	clone.ChainHead = nil
	b, _ := json.Marshal(&clone)
	return b
}

// Append adds a record to the log, assigning its sequence number and chain
// head. It returns the stored record.
func (l *Log) Append(r Record) Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Seq = uint64(len(l.records)) + 1
	r.ChainHead = l.chain.Append(payload(r))
	l.records = append(l.records, r)
	return r
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Records returns a copy of all records (for queries and tests).
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// query returns the records matching the non-empty filters.
func (l *Log) query(actor, resource string, outcome Outcome) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for _, r := range l.records {
		if actor != "" && r.Actor != actor {
			continue
		}
		if resource != "" && r.Resource != resource {
			continue
		}
		if outcome != "" && r.Outcome != outcome {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Verify recomputes the hash chain over all records and checks that it
// matches the stored heads and the current head. Any in-place modification,
// reordering or truncation of records is detected.
func (l *Log) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	chain := crypto.NewHashChain()
	for i, r := range l.records {
		head := chain.Append(payload(r))
		if string(head) != string(r.ChainHead) {
			return fmt.Errorf("%w: record %d", ErrChainBroken, i+1)
		}
	}
	if string(chain.Head()) != string(l.chain.Head()) {
		return ErrChainBroken
	}
	return nil
}

// DestinedTo returns the records destined to originator (Record.Originator):
// the accountability segment a recipient cell pushes to the originator cell.
func (l *Log) DestinedTo(originator string) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for _, r := range l.records {
		if r.Originator == originator {
			out = append(out, r)
		}
	}
	return out
}

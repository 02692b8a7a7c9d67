package audit

import (
	"testing"
	"time"
)

var now = time.Date(2013, 4, 1, 9, 0, 0, 0, time.UTC)

func sampleRecord(i int, actor string, outcome Outcome) Record {
	return Record{
		Time:     now.Add(time.Duration(i) * time.Minute),
		Actor:    actor,
		Action:   "read",
		Resource: "doc-1",
		Outcome:  outcome,
		Reason:   "rule household-aggregates",
	}
}

func TestAppendAssignsSequenceAndHead(t *testing.T) {
	l := NewLog()
	r1 := l.Append(sampleRecord(1, "bob", OutcomeAllowed))
	r2 := l.Append(sampleRecord(2, "carol", OutcomeDenied))
	if r1.Seq != 1 || r2.Seq != 2 {
		t.Fatalf("sequence numbers %d %d", r1.Seq, r2.Seq)
	}
	if len(r1.ChainHead) == 0 || string(r1.ChainHead) == string(r2.ChainHead) {
		t.Fatal("chain heads missing or not advancing")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if string(l.chain.Head()) != string(r2.ChainHead) {
		t.Fatal("log head does not match last record head")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		actor := "bob"
		if i%2 == 0 {
			actor = "carol"
		}
		l.Append(sampleRecord(i, actor, OutcomeAllowed))
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify clean log: %v", err)
	}
	// Tamper with a record in place.
	l.records[4].Outcome = OutcomeDenied
	if err := l.Verify(); err == nil {
		t.Fatal("in-place tampering not detected")
	}
	l.records[4].Outcome = OutcomeAllowed
	if err := l.Verify(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	// Truncation is detected because the chain object is ahead.
	l.records = l.records[:5]
	if err := l.Verify(); err == nil {
		t.Fatal("truncation not detected")
	}
}

func TestQueryFilters(t *testing.T) {
	l := NewLog()
	l.Append(sampleRecord(0, "bob", OutcomeAllowed))
	l.Append(sampleRecord(1, "carol", OutcomeDenied))
	r := sampleRecord(2, "bob", OutcomeDenied)
	r.Resource = "doc-2"
	l.Append(r)

	if got := l.query("bob", "", ""); len(got) != 2 {
		t.Fatalf("actor filter: %d", len(got))
	}
	if got := l.query("", "doc-2", ""); len(got) != 1 {
		t.Fatalf("resource filter: %d", len(got))
	}
	if got := l.query("", "", OutcomeDenied); len(got) != 2 {
		t.Fatalf("outcome filter: %d", len(got))
	}
	if got := l.query("bob", "doc-2", OutcomeDenied); len(got) != 1 {
		t.Fatalf("combined filter: %d", len(got))
	}
	if got := l.query("nobody", "", ""); len(got) != 0 {
		t.Fatalf("no-match filter: %d", len(got))
	}
}

func TestRecordsReturnsCopy(t *testing.T) {
	l := NewLog()
	l.Append(sampleRecord(0, "bob", OutcomeAllowed))
	recs := l.Records()
	recs[0].Actor = "mallory"
	if l.Records()[0].Actor != "bob" {
		t.Fatal("Records exposes internal state")
	}
}

// TestRecordsDestinedTo checks the selection of an accountability segment:
// the records destined to one originator, in log order, and nothing else.
// Sealing the segment, and refusing a wrong key or a re-addressed segment, is
// the pairing channel's job (core's TestAuditSegmentBoundToPairing).
func TestRecordsDestinedTo(t *testing.T) {
	l := NewLog()
	r := sampleRecord(0, "bob", OutcomeAllowed)
	r.Originator = "alice"
	l.Append(r)
	r2 := sampleRecord(1, "bob", OutcomeAllowed)
	r2.Originator = "dave"
	l.Append(r2)
	r3 := sampleRecord(2, "carol", OutcomeDenied)
	r3.Originator = "alice"
	l.Append(r3)

	records := l.DestinedTo("alice")
	if len(records) != 2 || records[0].Seq != 1 || records[1].Seq != 3 {
		t.Fatalf("records destined to alice: %+v", records)
	}
	for _, rec := range records {
		if rec.Originator != "alice" {
			t.Fatalf("foreign record leaked into segment: %+v", rec)
		}
	}
	records[0].Actor = "mallory"
	if l.Records()[0].Actor != "bob" {
		t.Fatal("DestinedTo exposes internal state")
	}
	if got := l.DestinedTo("nobody"); len(got) != 0 {
		t.Fatalf("records for an unknown originator: %+v", got)
	}
}

func BenchmarkAppend(b *testing.B) {
	l := NewLog()
	r := sampleRecord(0, "bob", OutcomeAllowed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(r)
	}
}

func BenchmarkVerify1000(b *testing.B) {
	l := NewLog()
	for i := 0; i < 1000; i++ {
		l.Append(sampleRecord(i, "bob", OutcomeAllowed))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

package storage

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"trustedcells/internal/tamper"
)

func TestMemDeviceReadWrite(t *testing.T) {
	d := NewMemDevice(0)
	if d.Size() != 0 {
		t.Fatalf("fresh device size = %d", d.Size())
	}
	data := []byte("hello flash")
	if _, err := d.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if d.Size() != int64(len(data)) {
		t.Fatalf("size = %d, want %d", d.Size(), len(data))
	}
	buf := make([]byte, len(data))
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q, want %q", buf, data)
	}
	// Sparse write extends the device.
	if _, err := d.WriteAt([]byte("x"), 100); err != nil {
		t.Fatalf("sparse WriteAt: %v", err)
	}
	if d.Size() != 101 {
		t.Fatalf("size after sparse write = %d", d.Size())
	}
}

func TestMemDeviceReadPastEnd(t *testing.T) {
	d := NewMemDevice(0)
	_, _ = d.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := d.ReadAt(buf, 0)
	if err != io.EOF || n != 3 {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	if _, err := d.ReadAt(buf, 50); err != io.EOF {
		t.Fatalf("read past end should be EOF, got %v", err)
	}
}

func TestMemDeviceCapacity(t *testing.T) {
	d := NewMemDevice(10)
	if _, err := d.WriteAt(make([]byte, 10), 0); err != nil {
		t.Fatalf("write within capacity: %v", err)
	}
	if _, err := d.WriteAt([]byte("x"), 10); err != ErrOutOfSpace {
		t.Fatalf("expected ErrOutOfSpace, got %v", err)
	}
}

// TestMemDeviceAppendsGrowGeometrically: appending past the end grows the
// buffer geometrically instead of copying the whole device on every write,
// and bytes never written since — a gap, or what lay past a Truncate — read
// back as zeros.
func TestMemDeviceAppendsGrowGeometrically(t *testing.T) {
	chunk := bytes.Repeat([]byte{0xAB}, 100)
	allocs := testing.AllocsPerRun(3, func() {
		d := NewMemDevice(0)
		for i := 0; i < 1000; i++ {
			if _, err := d.WriteAt(chunk, d.Size()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 32 {
		t.Fatalf("1000 appends of 100 B allocated %.0f times, want <= 32", allocs)
	}

	d := NewMemDevice(0)
	if _, err := d.WriteAt(bytes.Repeat([]byte{0xFF}, 1000), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("tail"), 500); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 504 {
		t.Fatalf("size = %d, want 504", d.Size())
	}
	buf := make([]byte, 504)
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	want := append(append(bytes.Repeat([]byte{0xFF}, 100), make([]byte, 400)...), "tail"...)
	if !bytes.Equal(buf, want) {
		t.Fatal("bytes past the truncation or in the gap did not read back as zeros")
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.dat")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatalf("OpenFileDevice: %v", err)
	}
	defer d.Close()
	if _, err := d.WriteAt([]byte("persisted"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if d.Size() != 9 {
		t.Fatalf("Size = %d, want 9", d.Size())
	}
	buf := make([]byte, 9)
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(buf) != "persisted" {
		t.Fatalf("read %q", buf)
	}
	// Reopen picks up the existing size.
	d.Close()
	d2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Size() != 9 {
		t.Fatalf("reopened size = %d", d2.Size())
	}
}

func TestMeteredDeviceCharges(t *testing.T) {
	var meter tamper.CostMeter
	d := NewMeteredDevice(NewMemDevice(0), &meter)
	payload := make([]byte, PageSize*2+1) // 3 pages
	if _, err := d.WriteAt(payload, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	buf := make([]byte, PageSize) // 1 page
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	_, reads, writes := meter.Snapshot()
	if writes != 3 {
		t.Fatalf("page writes = %d, want 3", writes)
	}
	if reads != 1 {
		t.Fatalf("page reads = %d, want 1", reads)
	}
	if d.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d", d.Size())
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestMeteredDeviceNilMeter(t *testing.T) {
	d := NewMeteredDevice(NewMemDevice(0), nil)
	if _, err := d.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatalf("WriteAt with nil meter: %v", err)
	}
}

func TestPagesHelper(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {-5, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {3 * PageSize, 3}}
	for _, c := range cases {
		if got := pages(c.n); got != c.want {
			t.Fatalf("pages(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAppendLogRoundTrip(t *testing.T) {
	log := NewAppendLog(NewMemDevice(0))
	records := [][]byte{[]byte("first"), []byte("second record"), {}, []byte("fourth")}
	var offsets []int64
	for _, r := range records {
		off, err := log.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		offsets = append(offsets, off)
	}
	for i, off := range offsets {
		got, err := log.ReadAt(off)
		if err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(got, records[i]) {
			t.Fatalf("record %d = %q, want %q", i, got, records[i])
		}
	}
}

func TestAppendLogScan(t *testing.T) {
	log := NewAppendLog(NewMemDevice(0))
	want := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, r := range want {
		if _, err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if err := log.scan(func(_ int64, p []byte) bool { got = append(got, p); return true }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Early stop.
	count := 0
	_ = log.scan(func(_ int64, _ []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d records", count)
	}
}

func TestAppendLogDetectsCorruption(t *testing.T) {
	dev := NewMemDevice(0)
	log := NewAppendLog(dev)
	off, _ := log.Append([]byte("important data"))
	// Flip a byte of the payload directly on the device.
	if _, err := dev.WriteAt([]byte{0xFF}, off+logHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	if _, err := log.ReadAt(off); err != ErrCorrupt {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestAppendLogResume(t *testing.T) {
	dev := NewMemDevice(0)
	log := NewAppendLog(dev)
	_, _ = log.Append([]byte("one"))
	head := log.Head()
	// A new AppendLog over the same device resumes at the end.
	log2 := NewAppendLog(dev)
	if log2.Head() != head {
		t.Fatalf("resumed head = %d, want %d", log2.Head(), head)
	}
	off, _ := log2.Append([]byte("two"))
	if off != head {
		t.Fatalf("append after resume at %d, want %d", off, head)
	}
	if err := log2.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestMemDeviceWriteAfterTruncate: a write that straddles the end left by a
// Truncate reads back as written, and a write past it leaves a gap of zeros
// even though the spare capacity still holds the truncated bytes.
func TestMemDeviceWriteAfterTruncate(t *testing.T) {
	d := NewMemDevice(0)
	if _, err := d.WriteAt(bytes.Repeat([]byte{0xFF}, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("abcd"), 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("xy"), 20); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 22)
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	want := append(append(append(bytes.Repeat([]byte{0xFF}, 6), "abcd"...), make([]byte, 10)...), "xy"...)
	if !bytes.Equal(buf, want) {
		t.Fatalf("read %x, want %x", buf, want)
	}
}

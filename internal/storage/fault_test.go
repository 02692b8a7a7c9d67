package storage

// Fault-injection tests for the Device error paths: a misbehaving device —
// partial writes or short reads reported with a nil error, or outright I/O
// failures — must surface as errors from the log and run layers, never as a
// panic or as silently torn records.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// faultDevice wraps a MemDevice and misbehaves on demand.
type faultDevice struct {
	inner *MemDevice
	// shortWriteBy makes WriteAt report n-shortWriteBy bytes with a nil
	// error; shortReadBy does the same for ReadAt.
	shortWriteBy int
	shortReadBy  int
	writeErr     error
	readErr      error
}

func (d *faultDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.writeErr != nil {
		return 0, d.writeErr
	}
	n, err := d.inner.WriteAt(p, off)
	if d.shortWriteBy > 0 && err == nil {
		n -= d.shortWriteBy
		if n < 0 {
			n = 0
		}
	}
	return n, err
}

func (d *faultDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.readErr != nil {
		return 0, d.readErr
	}
	n, err := d.inner.ReadAt(p, off)
	if d.shortReadBy > 0 && err == nil {
		n -= d.shortReadBy
		if n < 0 {
			n = 0
		}
	}
	return n, err
}

func (d *faultDevice) Size() int64            { return d.inner.Size() }
func (d *faultDevice) Sync() error            { return nil }
func (d *faultDevice) Truncate(n int64) error { return d.inner.Truncate(n) }

func TestAppendLogSurfacesPartialWrite(t *testing.T) {
	dev := &faultDevice{inner: NewMemDevice(0), shortWriteBy: 2}
	log := NewAppendLog(dev)
	if _, err := log.Append([]byte("payload")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("partial write not surfaced: %v", err)
	}
	if log.Head() != 0 {
		t.Fatalf("head advanced past a partial write: %d", log.Head())
	}
	// Once the fault clears, the log overwrites the torn bytes and recovers.
	dev.shortWriteBy = 0
	off, err := log.Append([]byte("payload"))
	if err != nil || off != 0 {
		t.Fatalf("append after fault: off=%d err=%v", off, err)
	}
	got, err := log.ReadAt(0)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back: %q, %v", got, err)
	}
}

func TestAppendLogSurfacesWriteError(t *testing.T) {
	wantErr := errors.New("flash controller timeout")
	dev := &faultDevice{inner: NewMemDevice(0), writeErr: wantErr}
	log := NewAppendLog(dev)
	if _, err := log.Append([]byte("x")); !errors.Is(err, wantErr) {
		t.Fatalf("write error not surfaced: %v", err)
	}
}

func TestAppendLogSurfacesShortRead(t *testing.T) {
	dev := &faultDevice{inner: NewMemDevice(0)}
	log := NewAppendLog(dev)
	off, err := log.Append([]byte("important"))
	if err != nil {
		t.Fatal(err)
	}
	dev.shortReadBy = 3
	if _, err := log.ReadAt(off); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read not surfaced: %v", err)
	}
	dev.shortReadBy = 0
	dev.readErr = errors.New("bad sector")
	if _, err := log.ReadAt(off); !errors.Is(err, dev.readErr) {
		t.Fatalf("read error not surfaced: %v", err)
	}
}

// TestAppendLogBoundsCorruptLength plants a header whose length field points
// far past the device: ReadAt must reject it as corruption instead of trying
// to allocate gigabytes (the panic path this guards against).
func TestAppendLogBoundsCorruptLength(t *testing.T) {
	dev := NewMemDevice(0)
	log := NewAppendLog(dev)
	off, err := log.Append([]byte("record"))
	if err != nil {
		t.Fatal(err)
	}
	header := make([]byte, logHeaderSize)
	binary.BigEndian.PutUint32(header[0:4], 0xBAD)
	binary.BigEndian.PutUint32(header[4:8], 0xFFFFFFF0)
	if _, err := dev.WriteAt(header, off); err != nil {
		t.Fatal(err)
	}
	if _, err := log.ReadAt(off); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length accepted: %v", err)
	}
	// Reads past the device end are corruption too, not a crash.
	if _, err := log.ReadAt(dev.Size() + 100); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read past end: %v", err)
	}
}

func TestWriteRunSurfacesPartialWrite(t *testing.T) {
	dev := &faultDevice{inner: NewMemDevice(0), shortWriteBy: 1}
	_, err := writeRun(dev, []memEntry{{key: []byte("k"), value: []byte("v")}}, 0)
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("partial run write not surfaced: %v", err)
	}
}

func TestOpenRunRejectsDamage(t *testing.T) {
	dev := NewMemDevice(0)
	r, err := writeRun(dev, []memEntry{
		{key: []byte("alpha"), value: []byte("1")},
		{key: []byte("beta"), value: []byte("2")},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A clean open rebuilds the descriptor identically.
	reopened, err := openRun(dev, r.offset-8)
	if err != nil {
		t.Fatalf("openRun: %v", err)
	}
	if reopened.count != 2 || !bytes.Equal(reopened.first, []byte("alpha")) || !bytes.Equal(reopened.last, []byte("beta")) {
		t.Fatalf("rebuilt descriptor: %+v", reopened)
	}
	e, ok, err := reopened.get(dev, nil, []byte("beta"), bloomHash([]byte("beta")), nil)
	if err != nil || !ok || string(e.value) != "2" {
		t.Fatalf("get through rebuilt index: %v %v %v", e, ok, err)
	}
	// Flip a body byte: the CRC must reject the run.
	if _, err := dev.WriteAt([]byte{0xFF}, r.offset+1); err != nil {
		t.Fatal(err)
	}
	if _, err := openRun(dev, r.offset-8); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt body accepted: %v", err)
	}
	// A header past the device end is torn, not fatal.
	if _, err := openRun(dev, dev.Size()-2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn header accepted: %v", err)
	}
}

// TestKVSurfacesShortRunRead: over a device whose reads come back three bytes
// short with a nil error, every run read — point lookup, scan, checksum
// verification — fails with ErrUnexpectedEOF instead of parsing the missing
// tail, and a short block is never admitted to the block cache.
func TestKVSurfacesShortRunRead(t *testing.T) {
	dev := &faultDevice{inner: NewMemDevice(0)}
	p := NewMemoryKV(func() Device { return dev }, PersistentOptions{})
	defer p.Close()
	entries := bigValueEntries(40, 1<<10)
	for _, e := range entries {
		if err := p.Apply([]Op{{Key: e.key, Value: e.value}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	key := entries[len(entries)-2].key
	dev.shortReadBy = 3
	if _, err := p.Get(key); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Get over a short read: %v", err)
	}
	if err := p.Scan(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Scan over a short read: %v", err)
	}
	if err := p.verifyRuns(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("VerifyRuns over a short read: %v", err)
	}
	cache := NewBlockCache(1 << 20)
	r := p.runs[0]
	if _, _, err := r.get(dev, cache, key, bloomHash(key), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("run get over a short read: %v", err)
	}
	if b := cache.Bytes(); b != 0 {
		t.Fatalf("short block admitted to the cache: %d bytes resident", b)
	}
	// Once reads are whole again, the same lookup succeeds and is cached.
	dev.shortReadBy = 0
	if _, ok, err := r.get(dev, cache, key, bloomHash(key), nil); !ok || err != nil {
		t.Fatalf("run get after the fault cleared: ok=%v err=%v", ok, err)
	}
	if cache.Bytes() == 0 {
		t.Fatal("whole block not admitted to the cache")
	}
}

// TestPersistentKVSurfacesShortRunRead cuts the runs file short underneath an
// open store: the file device's reads then come back short, and Get and Scan
// must fail with ErrUnexpectedEOF while the block cache keeps exactly what it
// held.
func TestPersistentKVSurfacesShortRunRead(t *testing.T) {
	dir := t.TempDir()
	cache := NewBlockCache(1 << 20)
	p, err := OpenPersistentKV(dir, PersistentOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	entries := bigValueEntries(40, 1<<10)
	ops := make([]Op, len(entries))
	for i, e := range entries {
		ops[i] = Op{Key: e.key, Value: e.value}
	}
	if err := p.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	first, last := entries[0].key, entries[len(entries)-1].key
	if _, err := p.Get(first); err != nil {
		t.Fatal(err)
	}
	resident := cache.Bytes()
	if resident == 0 {
		t.Fatal("first block not cached")
	}
	// Keep the run's header and all but the tail of its last block.
	r := p.runs[0]
	cut := r.offset + int64(r.indexOffsets[len(r.indexOffsets)-1]) + 10
	if err := os.Truncate(fileGenerations{dir}.path(p.gen, runsSuffix), cut); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(last); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Get over a short read: %v", err)
	}
	if err := p.Scan(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Scan over a short read: %v", err)
	}
	if b := cache.Bytes(); b != resident {
		t.Fatalf("cache holds %d bytes after the failed reads, held %d", b, resident)
	}
	// The block read before the cut is still served from the cache.
	if _, err := p.Get(first); err != nil {
		t.Fatalf("cached block: %v", err)
	}
}

func TestFullReadFullWriteHelpers(t *testing.T) {
	if err := fullWrite(5, 5, nil); err != nil {
		t.Fatalf("complete write flagged: %v", err)
	}
	if err := fullWrite(3, 5, nil); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("partial write missed: %v", err)
	}
	if err := fullRead(5, 5, io.EOF); err != nil {
		t.Fatalf("EOF exactly at the end flagged: %v", err)
	}
	if err := fullRead(3, 5, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read missed: %v", err)
	}
	if err := fullRead(3, 5, io.EOF); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short EOF read missed: %v", err)
	}
	custom := errors.New("custom")
	if err := fullRead(0, 5, custom); !errors.Is(err, custom) || strings.Contains(err.Error(), "short read") {
		t.Fatalf("device error rewritten: %v", err)
	}
}

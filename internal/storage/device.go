// Package storage implements the embedded storage engine that runs inside a
// trusted cell. The paper's challenge section singles out "low-end hardware
// devices like secure tokens (a microcontroller with tiny RAM, connected to
// NAND Flash chips or SD cards, possibly with energy consumption
// constraints)"; the engine is therefore designed as a log-structured
// merge store:
//
//   - all writes are sequential appends (NAND-flash friendly, no in-place
//     updates);
//   - the RAM-resident write buffer (memtable) is bounded by the hardware
//     profile's RAM budget;
//   - reads consult the memtable, then immutable sorted runs through a sparse
//     in-RAM index, touching a bounded number of flash pages;
//   - compaction merges runs into a new generation to bound read
//     amplification, and drops the generation it replaced.
//
// There is one engine, PersistentKV, over two generation stores: crash-safe
// files (cloud.Durable's shards) and in-memory devices (the cell's payload
// cache). Every page touched is charged to a tamper.CostMeter so that
// experiments can convert engine work into simulated device time and energy.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"trustedcells/internal/tamper"
)

// PageSize is the flash page granularity used for cost accounting.
const PageSize = 512

// Errors returned by devices and the engine.
var (
	ErrNotFound   = errors.New("storage: key not found")
	ErrClosed     = errors.New("storage: store is closed")
	ErrCorrupt    = errors.New("storage: corrupted record")
	ErrOutOfSpace = errors.New("storage: device capacity exceeded")
	// ErrLegacyStore refuses a PersistentKV directory written before the
	// footered run format: it has no upgrade path, and opening it fails
	// without touching a file.
	ErrLegacyStore = errors.New("storage: store predates the footered run format")
)

// Device abstracts the stable storage behind the engine: a NAND flash chip,
// an SD card, or (for the untrusted-cache case) a plain file. Offsets are
// byte offsets; implementations must be safe for concurrent use.
type Device interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current device size in bytes (the end of the
	// highest-written byte).
	Size() int64
	// Sync flushes buffered writes to stable storage.
	Sync() error
}

// Truncater is the optional truncation extension of Device. The persistent
// engine uses it to discard a torn tail detected during recovery and
// AppendLog.Reset to discard a checkpointed log; every device in this package
// implements it.
type Truncater interface {
	// Truncate discards everything past size bytes.
	Truncate(size int64) error
}

// fullWrite verifies a WriteAt result: a device that reports fewer bytes than
// requested without an error (a misbehaving flash controller, a full
// filesystem that lies) must still surface a partial-write error to the
// engine instead of letting a half-written record masquerade as committed.
func fullWrite(n, want int, err error) error {
	if err != nil {
		return err
	}
	if n < want {
		return fmt.Errorf("storage: partial write (%d of %d bytes): %w", n, want, io.ErrShortWrite)
	}
	return nil
}

// fullRead verifies a ReadAt result the same way: short reads with a nil
// error become ErrUnexpectedEOF rather than leaving stale buffer bytes to be
// parsed as record content.
func fullRead(n, want int, err error) error {
	if n >= want {
		return nil // the requested bytes arrived; EOF exactly at the end is fine
	}
	if err == nil || err == io.EOF {
		return fmt.Errorf("storage: short read (%d of %d bytes): %w", n, want, io.ErrUnexpectedEOF)
	}
	return err
}

// MemDevice is an in-memory Device used for tests, simulations and volatile
// caches. A capacity of zero means unbounded; the buffer grows by doubling.
type MemDevice struct {
	mu       sync.RWMutex
	data     []byte
	capacity int64
}

// NewMemDevice creates a memory device with the given capacity in bytes
// (0 = unbounded).
func NewMemDevice(capacity int64) *MemDevice {
	return &MemDevice{capacity: capacity}
}

// ReadAt implements io.ReaderAt.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off >= int64(len(d.data)) {
		return 0, io.EOF
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (d *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	end := off + int64(len(p))
	if d.capacity > 0 && end > d.capacity {
		return 0, ErrOutOfSpace
	}
	if old := int64(len(d.data)); end > old {
		if end > int64(cap(d.data)) {
			grown := make([]byte, old, max(end, 2*int64(cap(d.data))))
			copy(grown, d.data)
			d.data = grown
		}
		d.data = d.data[:end]
		// Spare capacity may hold bytes from before a Truncate. The copy
		// below covers [off, end); only a gap before off needs zeroing.
		if off > old {
			clear(d.data[old:off])
		}
	}
	copy(d.data[off:end], p)
	return len(p), nil
}

// Size returns the written extent of the device.
func (d *MemDevice) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data))
}

// Sync is a no-op for the memory device.
func (d *MemDevice) Sync() error { return nil }

// Truncate discards everything past size bytes.
func (d *MemDevice) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("storage: truncate to negative size %d", size)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < int64(len(d.data)) {
		d.data = d.data[:size]
	}
	return nil
}

// FileDevice is a Device backed by an operating-system file. It is used when
// a cell persists its encrypted local cache on an SD card or disk.
type FileDevice struct {
	mu   sync.Mutex
	f    *os.File
	size int64
}

// OpenFileDevice opens (creating if needed) the file at path.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("storage: open device: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat device: %w", err)
	}
	return &FileDevice{f: f, size: info.Size()}, nil
}

// ReadAt implements io.ReaderAt.
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) { return d.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) {
	n, err := d.f.WriteAt(p, off)
	d.mu.Lock()
	if end := off + int64(n); end > d.size {
		d.size = end
	}
	d.mu.Unlock()
	return n, err
}

// Size returns the file size.
func (d *FileDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Sync flushes the file.
func (d *FileDevice) Sync() error { return d.f.Sync() }

// Truncate discards everything past size bytes.
func (d *FileDevice) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("storage: truncate to negative size %d", size)
	}
	if err := d.f.Truncate(size); err != nil {
		return fmt.Errorf("storage: truncate device: %w", err)
	}
	d.mu.Lock()
	if size < d.size {
		d.size = size
	}
	d.mu.Unlock()
	return nil
}

// Close closes the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }

// MeteredDevice wraps a Device and charges every access to a cost meter in
// units of flash pages. It is how the engine's work becomes visible to the
// hardware-profile experiments.
type MeteredDevice struct {
	inner Device
	meter *tamper.CostMeter
}

// NewMeteredDevice wraps inner so accesses are charged to meter. A nil meter
// disables accounting.
func NewMeteredDevice(inner Device, meter *tamper.CostMeter) *MeteredDevice {
	return &MeteredDevice{inner: inner, meter: meter}
}

func pages(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}

// ReadAt reads and charges page reads.
func (d *MeteredDevice) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.inner.ReadAt(p, off)
	if d.meter != nil {
		d.meter.ChargeRead(pages(n))
	}
	return n, err
}

// WriteAt writes and charges page writes.
func (d *MeteredDevice) WriteAt(p []byte, off int64) (int, error) {
	n, err := d.inner.WriteAt(p, off)
	if d.meter != nil {
		d.meter.ChargeWrite(pages(n))
	}
	return n, err
}

// Size returns the inner device size.
func (d *MeteredDevice) Size() int64 { return d.inner.Size() }

// Sync syncs the inner device.
func (d *MeteredDevice) Sync() error { return d.inner.Sync() }

// Truncate truncates the inner device when it supports truncation.
func (d *MeteredDevice) Truncate(size int64) error {
	if t, ok := d.inner.(Truncater); ok {
		return t.Truncate(size)
	}
	return fmt.Errorf("storage: device does not support truncation")
}

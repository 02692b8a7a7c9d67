package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// AppendLog is an append-only record log on a Device. Records carry a CRC so
// torn writes and bit rot are detected on read. The log is the persistence
// primitive for both the LSM runs and the audit trail.
type AppendLog struct {
	mu   sync.Mutex
	dev  Device
	head int64 // next append offset
}

// logRecordHeader is: [4]crc32 [4]length.
const logHeaderSize = 8

// NewAppendLog creates a log over dev starting at the device's current size
// (so an existing log is resumed, not truncated).
func NewAppendLog(dev Device) *AppendLog {
	return &AppendLog{dev: dev, head: dev.Size()}
}

// Append writes one record and returns its offset. A partial write (the
// device storing fewer bytes than the record without reporting an error) is
// surfaced as an error: the head does not advance, so the torn bytes are
// overwritten by the next append instead of being parsed as a record.
func (l *AppendLog) Append(payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, logHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(payload)))
	copy(buf[logHeaderSize:], payload)
	off := l.head
	n, err := l.dev.WriteAt(buf, off)
	if err := fullWrite(n, len(buf), err); err != nil {
		return 0, fmt.Errorf("storage: log append: %w", err)
	}
	l.head += int64(len(buf))
	return off, nil
}

// ReadAt reads the record stored at offset off. The declared length is
// validated against the device extent before the payload is allocated, so a
// corrupted header cannot demand a multi-gigabyte buffer; short reads and
// checksum mismatches both come back as ErrCorrupt-wrapped errors.
func (l *AppendLog) ReadAt(off int64) ([]byte, error) {
	size := l.dev.Size()
	if off < 0 || off+logHeaderSize > size {
		return nil, fmt.Errorf("storage: log read header at %d past device end %d: %w", off, size, ErrCorrupt)
	}
	header := make([]byte, logHeaderSize)
	n, err := l.dev.ReadAt(header, off)
	if err := fullRead(n, logHeaderSize, err); err != nil {
		return nil, fmt.Errorf("storage: log read header: %w", err)
	}
	want := binary.BigEndian.Uint32(header[0:4])
	length := int64(binary.BigEndian.Uint32(header[4:8]))
	if off+logHeaderSize+length > size {
		return nil, fmt.Errorf("storage: log record of %d bytes at %d exceeds device end %d: %w",
			length, off, size, ErrCorrupt)
	}
	payload := make([]byte, length)
	n, err = l.dev.ReadAt(payload, off+logHeaderSize)
	if err := fullRead(n, int(length), err); err != nil {
		return nil, fmt.Errorf("storage: log read payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// Head returns the current append position (the log's logical size).
func (l *AppendLog) Head() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// scan iterates over all records from the beginning, calling fn with each
// record's offset and payload. Iteration stops at the first error or when fn
// returns false.
func (l *AppendLog) scan(fn func(off int64, payload []byte) bool) error {
	end := l.Head()
	var off int64
	for off < end {
		payload, err := l.ReadAt(off)
		if err != nil {
			return fmt.Errorf("storage: log scan at %d: %w", off, err)
		}
		if !fn(off, payload) {
			return nil
		}
		off += logHeaderSize + int64(len(payload))
	}
	return nil
}

// Sync flushes the underlying device.
func (l *AppendLog) Sync() error { return l.dev.Sync() }

// SeekHead repositions the append head. Recovery uses it on logs whose device
// extent is preallocated past the last record (the cloud commit journal):
// resuming at the device size would leave a gap of zeros between the last
// record and the next append.
func (l *AppendLog) SeekHead(off int64) {
	l.mu.Lock()
	l.head = off
	l.mu.Unlock()
}

// Reset discards every record and rewinds the head to zero. It is how a
// write-ahead log whose content has been checkpointed into durable runs is
// retired (the cloud commit journal). The device must support truncation.
func (l *AppendLog) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.dev.(Truncater)
	if !ok {
		return fmt.Errorf("storage: log device does not support truncation")
	}
	if err := t.Truncate(0); err != nil {
		return fmt.Errorf("storage: log reset: %w", err)
	}
	l.head = 0
	return nil
}

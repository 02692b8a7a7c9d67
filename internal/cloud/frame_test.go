package cloud

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// startFrameServer runs a FrameServer over svc on a loopback socket and
// returns its address.
func startFrameServer(t *testing.T, svc Service, opts FrameServerOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewFrameServer(svc, opts)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// readTestFrame reads one whole frame the way both ends of the protocol do.
func readTestFrame(br *bufio.Reader) (id uint64, payload []byte, err error) {
	id, n, err := readFrameHeader(br, DefaultMaxFrameBytes)
	if err != nil {
		return 0, nil, err
	}
	payload, err = readFramePayload(br, nil, n)
	return id, payload, err
}

// blockingService stalls PutBlob until released, so tests can hold requests
// in flight deliberately.
type blockingService struct {
	Service
	release chan struct{}
	entered chan string
}

func (b *blockingService) PutBlob(name string, data []byte) (int, error) {
	b.entered <- name
	<-b.release
	return b.Service.PutBlob(name, data)
}

// TestFrameInterleavedResponses proves the multiplexing claim: a slow
// request issued first must not block a fast request issued second on the
// same connection — the fast response overtakes it.
func TestFrameInterleavedResponses(t *testing.T) {
	blocker := &blockingService{
		Service: NewMemory(),
		release: make(chan struct{}),
		entered: make(chan string, 1),
	}
	addr := startFrameServer(t, blocker, FrameServerOptions{})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.PutBlob("slow", []byte("x"))
		slowDone <- err
	}()
	<-blocker.entered // the slow put is parked inside the backend

	// A read on the same connection must complete while the put is parked.
	fastDone := make(chan error, 1)
	go func() {
		_, err := c.ListBlobs("")
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast request failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast request blocked behind slow request: no interleaving")
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow request finished early: %v", err)
	default:
	}
	close(blocker.release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}
}

// TestFrameConcurrentClients hammers one connection from many goroutines:
// every response must route back to its own caller by request id.
func TestFrameConcurrentClients(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("g%d/doc-%d", g, i)
				if _, err := c.PutBlob(name, []byte(name)); err != nil {
					t.Errorf("put %s: %v", name, err)
					return
				}
				b, err := c.GetBlob(name)
				if err != nil {
					t.Errorf("get %s: %v", name, err)
					return
				}
				if string(b.Data) != name {
					t.Errorf("get %s returned %q: response routed to wrong caller", name, b.Data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFrameTornFrame feeds the server a truncated frame and verifies the
// connection is dropped without wedging the server: a fresh client on a new
// connection still gets served.
func TestFrameTornFrame(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{})

	for _, torn := range [][]byte{
		{0x00, 0x00},             // half a length prefix
		{0x00, 0x00, 0x00, 0x20}, // length promising 32 bytes, none sent
		{0x00, 0x00, 0x00, 0x20, 0, 0, 0, 0, 0, 0, 0, 1, 'h', 'a'}, // id + 2 of 24 payload bytes
		{0x00, 0x00, 0x00, 0x03},                                   // malformed: length below the 8-byte id
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial raw: %v", err)
		}
		if _, err := conn.Write(torn); err != nil {
			t.Fatalf("write torn frame: %v", err)
		}
		_ = conn.Close()
	}

	// The server must still be healthy.
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial after torn frames: %v", err)
	}
	defer c.Close()
	if _, err := c.PutBlob("alive", []byte("x")); err != nil {
		t.Fatalf("server wedged by torn frames: %v", err)
	}

	// Client side of the same coin: a server that dies mid-frame must fail
	// the in-flight call with a transport error, not hang it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the request frame, answer with half a response frame, die.
		if _, _, err := readTestFrame(bufio.NewReader(conn)); err == nil {
			_, _ = conn.Write([]byte{0x00, 0x00, 0x01, 0x00, 0x00})
		}
		_ = conn.Close()
		_ = ln.Close()
	}()
	tc, err := DialFramed(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial torn server: %v", err)
	}
	defer tc.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := tc.PutBlob("doomed", []byte("x"))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("call over torn connection reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call over torn connection hung instead of failing")
	}
}

// TestFrameOversizedRejected sends a frame above MaxFrameBytes and checks
// the typed rejection: the server answers the request id with an explicit
// error frame, then closes the connection.
func TestFrameOversizedRejected(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{MaxFrameBytes: 4096})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer conn.Close()
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], 8+64<<10) // declares 64 KiB payload
	binary.BigEndian.PutUint64(hdr[4:12], 77)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write header: %v", err)
	}

	br := bufio.NewReader(conn)
	id, payload, err := readTestFrame(br)
	if err != nil {
		t.Fatalf("read rejection frame: %v", err)
	}
	if id != 77 {
		t.Fatalf("rejection answered id %d, want 77", id)
	}
	var resp rpcResponse
	if err := decodeResponse(payload, &resp); err != nil {
		t.Fatalf("decode rejection: %v", err)
	}
	if resp.Err != errFrameTooLarge {
		t.Fatalf("rejection error = %q, want %q", resp.Err, errFrameTooLarge)
	}

	// The stream cannot be resynchronized past an unread payload, so the
	// server must have closed the connection.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readTestFrame(br); err == nil {
		t.Fatal("connection still open after oversized frame")
	}

	// And a well-behaved client on a fresh connection is unaffected.
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial after oversize: %v", err)
	}
	defer c.Close()
	if _, err := c.PutBlob("ok", make([]byte, 1024)); err != nil {
		t.Fatalf("normal put after oversize: %v", err)
	}
}

// TestFrameTypedErrorsCrossWire proves OverloadError and QuotaError survive
// the framed protocol: errors.Is and errors.As work on the client side and
// the retry-after hint round-trips.
func TestFrameTypedErrorsCrossWire(t *testing.T) {
	// MaxInFlight 0 is invalid, so use a saturating wrapper: a backend that
	// always sheds with a known hint.
	shed := shedService{inner: NewMemory(), retry: 40 * time.Millisecond}
	tenants := NewTenants(shed)
	if err := tenants.Define("tiny", TenantQuota{MaxBytes: 4}); err != nil {
		t.Fatalf("Define: %v", err)
	}
	addr := startFrameServer(t, shed, FrameServerOptions{Tenants: tenants})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	_, err = c.PutBlob("x", []byte("y"))
	var oe *OverloadError
	if !errors.Is(err, ErrOverloaded) || !errors.As(err, &oe) {
		t.Fatalf("overload did not cross the wire typed: %v", err)
	}
	if oe.RetryAfter != 40*time.Millisecond {
		t.Fatalf("retry-after hint = %v, want 40ms", oe.RetryAfter)
	}

	tc, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial tenant: %v", err)
	}
	defer tc.Close()
	if err := tc.Hello("tiny"); err != nil {
		t.Fatalf("hello: %v", err)
	}
	_, err = tc.PutBlob("big", []byte("way past four bytes"))
	var qe *QuotaError
	if !errors.Is(err, ErrQuotaExceeded) || !errors.As(err, &qe) {
		t.Fatalf("quota error did not cross the wire typed: %v", err)
	}
	if qe.Tenant != "tiny" || qe.Resource != "bytes" {
		t.Fatalf("quota error lost fields: %+v", qe)
	}
}

// TestFrameHelloUnknownTenant checks that a hello for an undefined tenant
// fails without killing the connection, which stays on the default backend.
func TestFrameHelloUnknownTenant(t *testing.T) {
	tenants := NewTenants(NewMemory())
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{Tenants: tenants})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Hello("ghost"); err == nil {
		t.Fatal("hello for unknown tenant succeeded")
	}
	if _, err := c.PutBlob("still-works", []byte("x")); err != nil {
		t.Fatalf("connection unusable after failed hello: %v", err)
	}
}

// shedService rejects every mutation with a typed OverloadError.
type shedService struct {
	inner Service
	retry time.Duration
}

func (s shedService) PutBlob(string, []byte) (int, error) {
	return 0, &OverloadError{RetryAfter: s.retry}
}
func (s shedService) GetBlob(name string) (Blob, error)    { return s.inner.GetBlob(name) }
func (s shedService) DeleteBlob(string) error              { return &OverloadError{RetryAfter: s.retry} }
func (s shedService) ListBlobs(p string) ([]string, error) { return s.inner.ListBlobs(p) }
func (s shedService) Send(Message) error                   { return &OverloadError{RetryAfter: s.retry} }
func (s shedService) Receive(string, int) ([]Message, error) {
	return nil, &OverloadError{RetryAfter: s.retry}
}
func (s shedService) Stats() Stats { return s.inner.Stats() }

// failingService fails every put with a fixed error.
type failingService struct {
	Service
	err error
}

func (f failingService) PutBlob(string, []byte) (int, error) { return 0, f.err }

// TestErrorCodesNotTextCrossWire pins that the client rebuilds a typed error
// from the response's code and never from its text, on both protocols: a
// backend error that merely reads like an overload or a quota rejection stays
// a plain error, and one that wraps a sentinel still matches it, text intact.
func TestErrorCodesNotTextCrossWire(t *testing.T) {
	dial := map[string]func(t *testing.T, svc Service) Service{
		"framed": func(t *testing.T, svc Service) Service {
			return dialTestFrameServer(t, svc, FrameServerOptions{}, "")
		},
		"tcp": func(t *testing.T, svc Service) Service { return startServer(t, svc) },
	}
	for proto, mk := range dial {
		for _, text := range []string{
			"cloud: overloaded by a disk that is full",
			`cloud: tenant "acme" over ops quota`,
		} {
			c := mk(t, failingService{Service: NewMemory(), err: errors.New(text)})
			_, err := c.PutBlob("x", []byte("y"))
			var oe *OverloadError
			var qe *QuotaError
			if err == nil || err.Error() != text {
				t.Fatalf("%s: error text changed on the wire: %v, want %q", proto, err, text)
			}
			if errors.As(err, &oe) || errors.As(err, &qe) || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrQuotaExceeded) {
				t.Fatalf("%s: a plain error reading %q came back typed: %#v", proto, text, err)
			}
		}

		wrapped := fmt.Errorf("replica 2 of 3: %w", ErrUnavailable)
		c := mk(t, failingService{Service: NewMemory(), err: wrapped})
		_, err := c.PutBlob("x", []byte("y"))
		if !errors.Is(err, ErrUnavailable) || err.Error() != wrapped.Error() {
			t.Fatalf("%s: wrapped sentinel came back as %v, want errors.Is ErrUnavailable with text %q", proto, err, wrapped)
		}
		if _, err := c.GetBlob("absent"); err != ErrBlobNotFound {
			t.Fatalf("%s: bare sentinel came back as %#v, want ErrBlobNotFound itself", proto, err)
		}
	}
}

// TestFrameWireVersionRefused sends the server what a client of the JSON
// payload era would: the frame is answered, on its id, with an
// ErrWireVersion error frame in the current codec, and the connection is
// closed. The client refuses a JSON response the same way.
func TestFrameWireVersionRefused(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer conn.Close()
	frame := append(beginFrame(nil), `{"op":"put","name":"x","data":"eQ=="}`...)
	if err := finishFrame(frame, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	id, payload, err := readTestFrame(br)
	if err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	var resp rpcResponse
	if err := decodeResponse(payload, &resp); err != nil {
		t.Fatalf("decode refusal: %v", err)
	}
	if err := respError(resp); id != 9 || !errors.Is(err, ErrWireVersion) {
		t.Fatalf("refusal = id %d, %v; want id 9, ErrWireVersion", id, err)
	}
	if _, _, err := readTestFrame(br); err == nil {
		t.Fatal("connection still open after a wire version mismatch")
	}

	// A server answering in JSON: the call fails with ErrWireVersion.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		id, _, err := readTestFrame(bufio.NewReader(conn))
		if err != nil {
			return
		}
		old := append(beginFrame(nil), `{"version":1}`...)
		if finishFrame(old, id) == nil {
			_, _ = conn.Write(old)
		}
	}()
	c, err := DialFramed(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.PutBlob("x", []byte("y")); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("call against a JSON server = %v, want ErrWireVersion", err)
	}
}

// TestFramePayloadBufferGrowsWithBytes pins the read buffer's sizing rule: a
// declared length reserves nothing by itself.
func TestFramePayloadBufferGrowsWithBytes(t *testing.T) {
	// Declared 16 MiB, nothing sent.
	buf, err := readFramePayload(bufio.NewReader(bytes.NewReader(nil)), nil, DefaultMaxFrameBytes-8)
	if err == nil {
		t.Fatal("read of a payload that never arrived succeeded")
	}
	if cap(buf) > 2*frameReadChunk {
		t.Fatalf("buffer grew to %d bytes for a payload that never arrived", cap(buf))
	}
	// Declared 16 MiB, 1 MiB sent: at most about twice what arrived.
	sent := make([]byte, 1<<20)
	buf, err = readFramePayload(bufio.NewReader(bytes.NewReader(sent)), nil, DefaultMaxFrameBytes-8)
	if err == nil || len(buf) != len(sent) {
		t.Fatalf("short payload: read %d bytes, err %v", len(buf), err)
	}
	if cap(buf) > 3*len(sent) {
		t.Fatalf("buffer grew to %d bytes for %d received", cap(buf), len(sent))
	}
	// And a whole payload larger than one chunk arrives intact.
	want := bytes.Repeat([]byte("0123456789abcdef"), 20<<10)
	buf, err = readFramePayload(bufio.NewReader(bytes.NewReader(want)), buf, len(want))
	if err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("320 KiB payload: %d bytes, err %v", len(buf), err)
	}
}

// TestFrameDeclaredLengthAllocatesNothing is the same rule seen from outside:
// connections that declare the largest frame the server accepts and then send
// nothing must not cost the server that much memory each.
func TestFrameDeclaredLengthAllocatesNothing(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{})
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], DefaultMaxFrameBytes)
	binary.BigEndian.PutUint64(hdr[4:], 1)

	const conns = 4
	grew := allocatedBy(func() {
		for i := 0; i < conns; i++ {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial raw: %v", err)
			}
			defer conn.Close()
			if _, err := conn.Write(hdr[:]); err != nil {
				t.Fatalf("write header: %v", err)
			}
			// Half-close: the server reads the header, sizes its buffer, finds
			// the stream ended and hangs up — which is the event to wait for.
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatalf("close write: %v", err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("server did not hang up on a torn 16 MiB frame: %v", err)
			}
		}
	})
	if grew > conns<<20 {
		t.Fatalf("%d connections declaring 16 MiB and sending nothing made the process allocate %d bytes", conns, grew)
	}
}

package cloud

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testFrameServer is a FrameServer serving on a loopback socket.
type testFrameServer struct {
	*FrameServer
	addr   string
	served chan error // Serve's result
}

// serveFramesAt serves svc on addr ("127.0.0.1:0" for any port), retrying
// while a previous listener's port is released.
func serveFramesAt(t *testing.T, addr string, svc Service, opts FrameServerOptions) *testFrameServer {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	s := &testFrameServer{FrameServer: NewFrameServer(svc, opts), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.Serve(ln) }()
	return s
}

// stop closes the server and waits for Serve to return, as a process exit
// would: every connection is gone when it returns.
func (s *testFrameServer) stop(t *testing.T) {
	t.Helper()
	_ = s.Close()
	select {
	case err := <-s.served:
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not return after Close")
	}
}

// startFrameServer runs a FrameServer over svc on a loopback socket for the
// rest of the test and returns its address.
func startFrameServer(t *testing.T, svc Service, opts FrameServerOptions) string {
	t.Helper()
	s := serveFramesAt(t, "127.0.0.1:0", svc, opts)
	t.Cleanup(func() { s.stop(t) })
	return s.addr
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

// blockingService stalls every put (PutBlob is a batch of one) until
// released, so tests can hold requests in flight deliberately.
type blockingService struct {
	Service
	release chan struct{}
	entered chan string
}

func (b *blockingService) PutBlobs(puts []BlobPut) ([]int, error) {
	b.entered <- puts[0].Name
	<-b.release
	return b.Service.PutBlobs(puts)
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
	shed := shedService{Service: NewMemory(), retry: 40 * time.Millisecond}
	tenants := NewTenants(shed)
	if err := tenants.Define("open", TenantQuota{}); err != nil {
		t.Fatalf("Define: %v", err)
	}
	if err := tenants.Define("tiny", TenantQuota{MaxBytes: 4}); err != nil {
		t.Fatalf("Define: %v", err)
	}
	addr := startFrameServer(t, shed, FrameServerOptions{Tenants: tenants})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Hello("open"); err != nil {
		t.Fatalf("hello: %v", err)
	}

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

// TestFrameShedsAtSaturation drives a real Admission through the framed
// protocol: with its one slot held by a put parked in the backend, a second
// put over the wire is shed as a typed OverloadError with a retry-after
// hint, and the held put still succeeds once the backend lets it go.
func TestFrameShedsAtSaturation(t *testing.T) {
	blocker := &blockingService{
		Service: NewMemory(),
		release: make(chan struct{}),
		entered: make(chan string, 1),
	}
	release := sync.OnceFunc(func() { close(blocker.release) })
	defer release()
	adm := NewAdmission(blocker, AdmissionOptions{MaxInFlight: 1})
	c, err := DialFramed(startFrameServer(t, adm, FrameServerOptions{}))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	held := make(chan error, 1)
	go func() {
		_, err := c.PutBlob("held", []byte("kept"))
		held <- err
	}()
	<-blocker.entered // the held put owns the only slot

	_, err = c.PutBlob("shed", []byte("x"))
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("saturated put over the wire: %v, want OverloadError with a retry-after hint", err)
	}
	if got := adm.AdmissionStats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	release()
	if err := <-held; err != nil {
		t.Fatalf("held put: %v", err)
	}
	b, err := c.GetBlob("held")
	if err != nil || string(b.Data) != "kept" {
		t.Fatalf("read back held put: %q, %v", b.Data, err)
	}
}

// TestFrameHelloUnknownTenant checks that a hello for an undefined tenant
// fails without killing the connection, which stays unbound — refused until
// a hello succeeds — rather than falling through to the backend.
func TestFrameHelloUnknownTenant(t *testing.T) {
	backend := NewMemory()
	tenants := NewTenants(backend)
	if err := tenants.Define("acme", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	addr := startFrameServer(t, backend, FrameServerOptions{Tenants: tenants})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Hello("ghost"); err == nil {
		t.Fatal("hello for unknown tenant succeeded")
	}
	if _, err := c.PutBlob("refused", []byte("x")); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("put after a failed hello = %v, want ErrNoTenant", err)
	}
	if err := c.Hello("acme"); err != nil {
		t.Fatalf("hello after a failed hello: %v", err)
	}
	if _, err := c.PutBlob("works", []byte("x")); err != nil {
		t.Fatalf("put once bound: %v", err)
	}
	if names, _ := backend.ListBlobs(""); len(names) != 1 || names[0] != "t/acme/works" {
		t.Fatalf("backend holds %v, want only t/acme/works", names)
	}
}

// TestFrameFailsClosedWithoutHello: on a server with tenants, a connection
// that has not said hello is refused on every op with ErrNoTenant and
// reaches nothing of the backend; once bound, a second hello fails and the
// binding stays.
func TestFrameFailsClosedWithoutHello(t *testing.T) {
	backend := NewMemory()
	tenants := NewTenants(backend)
	for _, name := range []string{"acme", "other"} {
		if err := tenants.Define(name, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := backend.PutBlob("t/acme/secret", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := backend.Send(Message{To: "t/acme/inbox", Body: []byte("m")}); err != nil {
		t.Fatal(err)
	}
	before := backend.Stats()
	c := dialTestFrameServer(t, backend, FrameServerOptions{Tenants: tenants}, "")
	refused := map[string]error{}
	_, refused["put"] = c.PutBlob("t/acme/secret", []byte("overwrite"))
	_, refused["get"] = c.GetBlob("t/acme/secret")
	_, refused["list"] = c.ListBlobs("")
	refused["delete"] = c.DeleteBlob("t/acme/secret")
	refused["send"] = c.Send(Message{To: "t/acme/inbox", Body: []byte("spoof")})
	_, refused["receive"] = c.Receive("t/acme/inbox", 0)
	for op, err := range refused {
		if !errors.Is(err, ErrNoTenant) {
			t.Errorf("%s without hello = %v, want ErrNoTenant", op, err)
		}
	}
	if after := backend.Stats(); after != before {
		t.Fatalf("a hello-less connection reached the backend: %+v -> %+v", before, after)
	}

	if err := c.Hello("acme"); err != nil {
		t.Fatalf("hello: %v", err)
	}
	for _, tenant := range []string{"acme", "other"} {
		if err := c.Hello(tenant); err == nil {
			t.Fatalf("second hello (%s) on a bound connection succeeded", tenant)
		}
	}
	if b, err := c.GetBlob("secret"); err != nil || string(b.Data) != "x" {
		t.Fatalf("bound connection lost its tenant: %+v %v", b, err)
	}
}

// shedService rejects every mutation with a typed OverloadError.
type shedService struct {
	Service
	retry time.Duration
}

func (s shedService) PutBlobs([]BlobPut) ([]int, error) {
	return nil, &OverloadError{RetryAfter: s.retry}
}
func (s shedService) DeleteBlob(string) error { return &OverloadError{RetryAfter: s.retry} }
func (s shedService) Send(Message) error      { return &OverloadError{RetryAfter: s.retry} }
func (s shedService) Receive(string, int) ([]Message, error) {
	return nil, &OverloadError{RetryAfter: s.retry}
}

// failingService fails every put with a fixed error.
type failingService struct {
	Service
	err error
}

func (f failingService) PutBlobs([]BlobPut) ([]int, error) { return nil, f.err }

// TestErrorCodesNotTextCrossWire pins that the client rebuilds a typed error
// from the response's code and never from its text: a backend error that
// merely reads like an overload or a quota rejection stays a plain error, and
// one that wraps a sentinel still matches it, text intact.
func TestErrorCodesNotTextCrossWire(t *testing.T) {
	for _, text := range []string{
		"cloud: overloaded by a disk that is full",
		`cloud: tenant "acme" over ops quota`,
	} {
		c := dialTestFrameServer(t, failingService{Service: NewMemory(), err: errors.New(text)}, FrameServerOptions{}, "")
		_, err := c.PutBlob("x", []byte("y"))
		var oe *OverloadError
		var qe *QuotaError
		if err == nil || err.Error() != text {
			t.Fatalf("error text changed on the wire: %v, want %q", err, text)
		}
		if errors.As(err, &oe) || errors.As(err, &qe) || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("a plain error reading %q came back typed: %#v", text, err)
		}
	}

	wrapped := fmt.Errorf("replica 2 of 3: %w", ErrUnavailable)
	c := dialTestFrameServer(t, failingService{Service: NewMemory(), err: wrapped}, FrameServerOptions{}, "")
	_, err := c.PutBlob("x", []byte("y"))
	if !errors.Is(err, ErrUnavailable) || err.Error() != wrapped.Error() {
		t.Fatalf("wrapped sentinel came back as %v, want errors.Is ErrUnavailable with text %q", err, wrapped)
	}
	if _, err := c.GetBlob("absent"); err != ErrBlobNotFound {
		t.Fatalf("bare sentinel came back as %#v, want ErrBlobNotFound itself", err)
	}
}

// shortService answers every batch with one result too few.
type shortService struct{ Service }

func (s shortService) PutBlobs(puts []BlobPut) ([]int, error) {
	versions, err := s.Service.PutBlobs(puts)
	return versions[:len(versions)-1], err
}

func (s shortService) GetBlobs(names []string) ([]Blob, error) {
	blobs, err := s.Service.GetBlobs(names)
	return blobs[:len(blobs)-1], err
}

func (s shortService) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	blobs, err := s.Service.GetBlobsIf(gets)
	return blobs[:len(blobs)-1], err
}

// TestFrameClientRefusesMiscountedBatch: a server that answers a batch with
// the wrong number of results gets an error at the client, never a slice
// whose length it chose — and a single call, a batch of one answered with
// nothing, fails instead of indexing past the end.
func TestFrameClientRefusesMiscountedBatch(t *testing.T) {
	c := dialTestFrameServer(t, shortService{NewMemory()}, FrameServerOptions{}, "")
	if vs, err := c.PutBlobs([]BlobPut{{Name: "a", Data: []byte("1")}, {Name: "b", Data: []byte("2")}}); err == nil {
		t.Fatalf("2-blob PutBlobs answered with 1 version came back %v, nil", vs)
	}
	if bs, err := c.GetBlobs([]string{"a", "b"}); err == nil {
		t.Fatalf("2-name GetBlobs answered with 1 blob came back %+v, nil", bs)
	}
	if bs, err := c.GetBlobsIf([]CondGet{{Name: "a"}, {Name: "b"}}); err == nil {
		t.Fatalf("2-name GetBlobsIf answered with 1 blob came back %+v, nil", bs)
	}
	if _, err := c.PutBlob("a", []byte("1")); err == nil {
		t.Fatal("PutBlob answered with no version succeeded")
	}
	if _, err := c.GetBlob("a"); err == nil || err == ErrBlobNotFound {
		t.Fatalf("GetBlob answered with no blob = %v, want a batch-length error", err)
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

// TestFrameServerCloseWithIdleClient: Close must not wait for clients to hang
// up. A connected client that sends nothing used to leave its handler blocked
// in a read, so Serve never returned and tccloud never reached its shutdown
// checkpoint.
func TestFrameServerCloseWithIdleClient(t *testing.T) {
	srv := serveFramesAt(t, "127.0.0.1:0", NewMemory(), FrameServerOptions{})
	c, err := DialFramed(srv.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.PutBlob("x", []byte("y")); err != nil {
		t.Fatalf("put: %v", err)
	}
	_ = srv.Close()
	select {
	case err := <-srv.served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve still blocked 1s after Close with an idle client connected")
	}
}

// TestFrameServerCloseAnswersParkedRequest closes the server while a request
// is parked in the backend: the call is answered or fails, never hangs, and
// Serve returns once the backend lets go.
func TestFrameServerCloseAnswersParkedRequest(t *testing.T) {
	blocker := &blockingService{Service: NewMemory(), release: make(chan struct{}), entered: make(chan string, 1)}
	srv := serveFramesAt(t, "127.0.0.1:0", blocker, FrameServerOptions{})
	c, err := DialFramed(srv.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.PutBlob("parked", []byte("x"))
		done <- err
	}()
	<-blocker.entered
	_ = srv.Close()
	close(blocker.release)
	select {
	case err := <-done:
		t.Logf("parked request after Close: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("parked request hung across Close")
	}
	srv.stop(t)
}

// TestFrameClientRedialsAfterServerRestart kills the server under a client
// and checks the next call after the restart redials and succeeds — with the
// server's state intact when the backing store survives (as a Durable member
// or a restarted tccloud process would).
func TestFrameClientRedialsAfterServerRestart(t *testing.T) {
	store := NewMemory()
	srv := serveFramesAt(t, "127.0.0.1:0", store, FrameServerOptions{})
	c := NewFrameClient(srv.addr)
	defer c.Close()
	if _, err := c.PutBlob("k", []byte("v1")); err != nil {
		t.Fatalf("put before restart: %v", err)
	}

	srv.stop(t)
	if _, err := c.GetBlob("k"); err == nil {
		t.Fatal("expected a transport error while the server is down")
	}

	// Rebind the same port; the store (and its versions) survive, as they
	// would for a durable member restarted over the same data directory.
	srv = serveFramesAt(t, srv.addr, store, FrameServerOptions{})
	defer srv.stop(t)
	b, err := c.GetBlob("k")
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if string(b.Data) != "v1" || b.Version != 1 {
		t.Fatalf("blob after restart = %q v%d, want v1/1", b.Data, b.Version)
	}
	if _, err := c.PutBlob("k", []byte("v2")); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
}

// TestFrameClientRebindsTenantAfterRestart: a client bound with Hello says
// hello again on the connection it redials, so its writes after a server
// restart still land in its own namespace, never in the default backend's.
func TestFrameClientRebindsTenantAfterRestart(t *testing.T) {
	backend := NewMemory()
	tenants := NewTenants(backend)
	if err := tenants.Define("acme", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	opts := FrameServerOptions{Tenants: tenants}
	srv := serveFramesAt(t, "127.0.0.1:0", backend, opts)
	c := NewFrameClient(srv.addr)
	defer c.Close()
	if err := c.Hello("acme"); err != nil {
		t.Fatalf("hello: %v", err)
	}
	srv.stop(t)
	if _, err := c.PutBlob("lost", []byte("x")); err == nil {
		t.Fatal("expected a transport error while the server is down")
	}
	srv = serveFramesAt(t, srv.addr, backend, opts)
	defer srv.stop(t)
	if _, err := c.PutBlob("after", []byte("x")); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
	if _, err := backend.GetBlob("t/acme/after"); err != nil {
		t.Fatalf("write after restart missed the tenant namespace: %v", err)
	}
	if _, err := backend.GetBlob("after"); err != ErrBlobNotFound {
		t.Fatalf("write after restart landed in the default namespace: %v", err)
	}
}

// countingService counts the puts that reach the backend.
type countingService struct {
	*blockingService
	puts atomic.Int64
}

func (c *countingService) PutBlobs(puts []BlobPut) ([]int, error) {
	c.puts.Add(1)
	return c.blockingService.PutBlobs(puts)
}

// TestFrameClientNeverResends: a put in flight when its connection is killed
// fails, the backend applies it at most once, and the client's next call
// redials instead of replaying it.
func TestFrameClientNeverResends(t *testing.T) {
	store := NewMemory()
	backend := &countingService{blockingService: &blockingService{
		Service: store, release: make(chan struct{}), entered: make(chan string, 1),
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackingListener{Listener: ln}
	srv := NewFrameServer(backend, FrameServerOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(tl) }()
	defer func() { _ = srv.Close(); <-served }()

	c := NewFrameClient(ln.Addr().String())
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.PutBlob("once", []byte("x"))
		done <- err
	}()
	<-backend.entered
	tl.killConns()
	if err := <-done; err == nil {
		t.Fatal("put whose connection was killed reported success")
	}
	close(backend.release) // the backend finishes the put it already took
	if _, err := c.GetBlob("once"); err != nil && err != ErrBlobNotFound {
		t.Fatalf("call after the kill did not redial: %v", err)
	}
	if n := backend.puts.Load(); n != 1 {
		t.Fatalf("backend saw the put %d times, want exactly once", n)
	}
}

// trackingListener records accepted connections so a test can sever them
// the way a network failure would.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) killConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.Close()
	}
	l.conns = nil
}

// TestFrameClientDialsLazily: NewFrameClient does not dial, so it can be made
// for a server that is not up; calls fail until one binds the address.
func TestFrameClientDialsLazily(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	c := NewFrameClient(addr)
	defer c.Close()
	if _, err := c.PutBlob("x", []byte("y")); err == nil {
		t.Fatal("put with no server listening succeeded")
	}
	srv := serveFramesAt(t, addr, NewMemory(), FrameServerOptions{})
	defer srv.stop(t)
	if _, err := c.PutBlob("x", []byte("y")); err != nil {
		t.Fatalf("put once the server is up: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.PutBlob("x", []byte("y")); err == nil {
		t.Fatal("a closed client redialed")
	}
}

// TestReplicatedTCPMemberRestart runs the availability drill over a real
// wire: a 3-member fleet where one member is a framed server reached through
// NewFrameClient. The member's process dies mid-workload, writes continue at
// quorum, the process comes back over the same store, and the hint drain
// converges it.
func TestReplicatedTCPMemberRestart(t *testing.T) {
	remoteStore := NewMemory()
	srv := serveFramesAt(t, "127.0.0.1:0", remoteStore, FrameServerOptions{})
	remote := NewFrameClient(srv.addr)
	defer remote.Close()
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), remote}, ReplicatedOptions{
		WriteQuorum:   2,
		ReadQuorum:    2,
		FailThreshold: 1,
		ProbeEvery:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			name := fmt.Sprintf("tcp/doc-%03d", i)
			if _, err := r.PutBlob(name, []byte(name)); err != nil {
				t.Fatalf("put %s: %v", name, err)
			}
		}
	}
	put(0, 20)

	// The member's process dies; the fleet keeps acknowledging at W=2. The
	// down mark lands when the member's calls fail, which may trail the
	// quorum acks.
	srv.stop(t)
	put(20, 40)
	deadline := time.Now().Add(5 * time.Second)
	for !r.MemberDown(2) {
		if time.Now().After(deadline) {
			t.Fatal("TCP member should be marked down after its process died")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The process returns over the same store; probes redial, the hint
	// drain replays what it missed, anti-entropy mops up anything dropped.
	srv = serveFramesAt(t, srv.addr, remoteStore, FrameServerOptions{})
	defer srv.stop(t)
	if n := r.DrainHints(); n == 0 {
		t.Fatal("expected hints to drain into the restarted member")
	}
	if _, err := r.AntiEntropy(); err != nil {
		t.Fatalf("anti-entropy: %v", err)
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("tcp/doc-%03d", i)
		b, err := remoteStore.GetBlob(name)
		if err != nil {
			t.Fatalf("restarted member missing %s: %v", name, err)
		}
		if string(b.Data) != name {
			t.Fatalf("restarted member has wrong data for %s", name)
		}
	}
}

func TestTCPBlobRoundTrip(t *testing.T) {
	client := dialTestFrameServer(t, NewMemory(), FrameServerOptions{}, "")
	v, err := client.PutBlob("alice/doc-1", []byte("sealed"))
	if err != nil || v != 1 {
		t.Fatalf("PutBlob over TCP: v=%d err=%v", v, err)
	}
	b, err := client.GetBlob("alice/doc-1")
	if err != nil || !bytes.Equal(b.Data, []byte("sealed")) {
		t.Fatalf("GetBlob over TCP: %q %v", b.Data, err)
	}
	names, err := client.ListBlobs("alice/")
	if err != nil || len(names) != 1 {
		t.Fatalf("ListBlobs: %v %v", names, err)
	}
	if err := client.DeleteBlob("alice/doc-1"); err != nil {
		t.Fatalf("DeleteBlob: %v", err)
	}
	if _, err := client.GetBlob("alice/doc-1"); err != ErrBlobNotFound {
		t.Fatalf("expected ErrBlobNotFound through the client, got %v", err)
	}
}

func TestTCPMailboxAndStats(t *testing.T) {
	client := dialTestFrameServer(t, NewMemory(), FrameServerOptions{}, "")
	if err := client.Send(Message{From: "alice", To: "bob", Kind: "share", Body: []byte("hi")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs, err := client.Receive("bob", 10)
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "hi" {
		t.Fatalf("Receive: %v %v", msgs, err)
	}
	if st := client.Stats(); st.Sends != 1 || st.Receives != 1 {
		t.Fatalf("stats over TCP: %+v", st)
	}
}

// TestTCPMultipleClients: two clients, each with its own connection, share
// one server's store.
func TestTCPMultipleClients(t *testing.T) {
	clientA := dialTestFrameServer(t, NewMemory(), FrameServerOptions{}, "")
	clientB := NewFrameClient(clientA.addr)
	defer clientB.Close()
	if _, err := clientA.PutBlob("shared", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	b, err := clientB.GetBlob("shared")
	if err != nil || string(b.Data) != "from-a" {
		t.Fatalf("cross-client read: %v %v", b, err)
	}
}

// TestTCPBatchRoundTrip: a batch is one exchange, and the server's counters
// still count it per blob.
func TestTCPBatchRoundTrip(t *testing.T) {
	client := dialTestFrameServer(t, NewMemory(), FrameServerOptions{}, "")
	puts := make([]BlobPut, 20)
	names := make([]string, 20)
	for i := range puts {
		names[i] = fmt.Sprintf("fleet/blob-%02d", i)
		puts[i] = BlobPut{Name: names[i], Data: []byte(names[i])}
	}
	versions, err := client.PutBlobs(puts)
	if err != nil {
		t.Fatalf("PutBlobs over TCP: %v", err)
	}
	for i, v := range versions {
		if v != 1 {
			t.Fatalf("version[%d] = %d", i, v)
		}
	}
	blobs, err := client.GetBlobs(append(names, "missing"))
	if err != nil {
		t.Fatalf("GetBlobs over TCP: %v", err)
	}
	for i := range names {
		if !bytes.Equal(blobs[i].Data, []byte(names[i])) {
			t.Fatalf("blob %d = %q", i, blobs[i].Data)
		}
	}
	if blobs[len(names)].Version != 0 {
		t.Fatalf("missing blob should be zero: %+v", blobs[len(names)])
	}
	if st := client.Stats(); st.Puts != 20 || st.Gets != 21 {
		t.Fatalf("server-side counters after batch: %+v", st)
	}
}

func TestTCPConditionalBatchGet(t *testing.T) {
	client := dialTestFrameServer(t, NewMemory(), FrameServerOptions{}, "")
	_, _ = client.PutBlob("sync/0", []byte("a1"))
	_, _ = client.PutBlob("sync/1", []byte("b1"))
	_, _ = client.PutBlob("sync/1", []byte("b2"))
	blobs, err := client.GetBlobsIf([]CondGet{
		{Name: "sync/0", IfNewer: 1},
		{Name: "sync/1", IfNewer: 1},
		{Name: "sync/2", IfNewer: 0},
	})
	if err != nil {
		t.Fatalf("GetBlobsIf over TCP: %v", err)
	}
	if blobs[0].Version != 1 || blobs[0].Data != nil {
		t.Fatalf("unadvanced blob should ship no data over the wire: %+v", blobs[0])
	}
	if blobs[1].Version != 2 || !bytes.Equal(blobs[1].Data, []byte("b2")) {
		t.Fatalf("advanced blob: %+v", blobs[1])
	}
	if blobs[2].Version != 0 {
		t.Fatalf("missing blob should be zero: %+v", blobs[2])
	}
}

// rawFrameExchange dials addr without a client and returns a function that
// sends one payload under an id and decodes the response frame to it.
func rawFrameExchange(t *testing.T, addr string) func(id uint64, payload []byte) rpcResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	return func(id uint64, payload []byte) rpcResponse {
		t.Helper()
		frame := append(beginFrame(nil), payload...)
		if err := finishFrame(frame, id); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		gotID, body, err := readTestFrame(br)
		if err != nil || gotID != id {
			t.Fatalf("response to %d: id %d, %v", id, gotID, err)
		}
		var resp rpcResponse
		if err := decodeResponse(body, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp
	}
}

// TestTCPUnknownOp: a request whose op code the server does not know is
// answered with an error on its id, and the connection keeps serving.
func TestTCPUnknownOp(t *testing.T) {
	exchange := rawFrameExchange(t, startFrameServer(t, NewMemory(), FrameServerOptions{}))
	if resp := exchange(1, []byte{wireMagic, 0x7F, 0}); !strings.Contains(resp.Err, "unknown op") {
		t.Fatalf("unknown op answered %+v", resp)
	}
	stats, err := appendRequest(nil, &rpcRequest{Op: "stats"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := exchange(2, stats); resp.Err != "" || resp.Stats == nil {
		t.Fatalf("connection unusable after an unknown op: %+v", resp)
	}
}

// TestFrameRetiredOpsRefused sends what a client of the single put and get
// ops would: op codes 1 and 2, and the retired data mask bit on a putb. Each
// is answered with an error on its id, none reaches the backend, and the
// connection keeps serving.
func TestFrameRetiredOpsRefused(t *testing.T) {
	backend := NewMemory()
	exchange := rawFrameExchange(t, startFrameServer(t, backend, FrameServerOptions{}))
	for i, payload := range [][]byte{
		{wireMagic, 1, reqName | reqRetiredData, 1, 'x', 1, 'y'}, // put "x" = "y"
		{wireMagic, 2, reqName, 1, 'x'},                          // get "x"
		{wireMagic, 5, reqRetiredData, 1, 'y'},                   // putb with a single put's data
	} {
		if resp := exchange(uint64(i+1), payload); respError(resp) == nil {
			t.Fatalf("retired request %d answered without error: %+v", i, resp)
		}
	}
	stats, err := appendRequest(nil, &rpcRequest{Op: "stats"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := exchange(9, stats); resp.Err != "" || resp.Stats == nil || *resp.Stats != (Stats{}) {
		t.Fatalf("after the retired requests: %+v", resp)
	}
}

// TestCloseTwice: a second Close of a store, a server, a client or a
// replicated layer does nothing and returns nil: a durable store must not
// checkpoint into its closed journal, nor a server close its closed
// listener.
func TestCloseTwice(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutBlob("doc", []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv := serveFramesAt(t, "127.0.0.1:0", d, FrameServerOptions{})
	c, err := DialFramed(srv.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.GetBlob("doc"); err != nil {
		t.Fatalf("get: %v", err)
	}
	r, err := NewReplicated([]Service{NewMemory(), NewMemory()}, ReplicatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.StartAntiEntropy(time.Hour)
	for _, closer := range []struct {
		name  string
		close func() error
	}{
		{"FrameClient", c.Close},
		{"FrameServer", srv.Close},
		{"Replicated", r.Close},
		{"Durable", d.Close},
	} {
		for i := 1; i <= 2; i++ {
			if err := closer.close(); err != nil {
				t.Errorf("%s: Close #%d: %v", closer.name, i, err)
			}
		}
	}
	select {
	case err := <-srv.served:
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not return after Close")
	}
}

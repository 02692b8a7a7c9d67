package cloud

// This file is the wire: a connection-multiplexed framed protocol carrying
// Service calls between processes (cmd/tccell and cmd/tccloud, a tccloud
// coordinator and its fleet members, the E14 front door). Every request is
// tagged with an id and responses return in completion order, so one TCP
// connection carries any number of concurrent operations and a slow
// operation never stalls the ones queued behind it — which is what lets tens
// of thousands of simulated cells share a handful of sockets in experiment
// E14.
//
// Frame layout (DESIGN.md §11.2):
//
//	[4B big-endian length][8B big-endian request id][payload]
//
// where length counts the id plus the payload (so length >= 8), and the
// payload is the binary encoding (wirecodec.go) of an rpcRequest or
// rpcResponse. Request ids are chosen by the client, must be unique among
// its in-flight requests on a connection, and are echoed on the response;
// nothing else is read into them. A frame whose declared length exceeds the
// server's MaxFrameBytes is answered with a typed error frame and the
// connection is closed (the remaining bytes are unread, so the stream
// cannot be resynchronized). So is a payload that does not start with the
// codec's magic byte — a peer speaking another wire version, such as the
// JSON payload this protocol used to carry: ErrWireVersion, then close. A
// torn frame — the connection dying mid-frame — just closes the connection;
// the client fails all in-flight calls.
//
// Frame I/O: a frame is encoded straight into a pooled buffer whose first 12
// bytes are reserved for the header, and leaves in one Write. Frames are read
// through a per-connection bufio.Reader, the payload into a buffer that grows
// as bytes arrive rather than to the declared length. The server's read
// buffer is pooled: a decoded request's blob data points into it, and it is
// recycled once the request has been dispatched and answered — the Service
// contract already forbids a backend to retain put data past the call. The
// client's read buffer is allocated per response and handed to the caller
// with it: the returned blobs' Data point into that one allocation.
//
// A server with tenants (FrameServerOptions.Tenants) fails closed: a frame
// with Op "hello" and Name <tenant> binds the connection, once, to that
// tenant's namespaced view (see Tenants), and every request before a
// successful hello fails with ErrNoTenant. A server without tenants serves
// its backend to every connection and refuses hello.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/crypto"
)

// DefaultMaxFrameBytes caps a frame's declared length (id + payload) unless
// FrameServerOptions overrides it. 16 MiB comfortably fits the largest
// batch the experiments ship while bounding what a peer can make the other
// side buffer.
const DefaultMaxFrameBytes = 16 << 20

// frameHeaderSize is the fixed prefix: 4 bytes length + 8 bytes request id.
const frameHeaderSize = 12

// frameReadBuffer sizes a connection's bufio.Reader: large enough that a
// header and a typical batch arrive in one read.
const frameReadBuffer = 32 << 10

// frameReadChunk is the most a payload buffer grows ahead of the bytes that
// have actually arrived, so a declared length alone reserves no memory.
const frameReadChunk = 64 << 10

// perConnWorkers bounds the requests one connection may have executing
// concurrently; beyond it the read loop blocks, which is per-connection flow
// control, not shedding (the Admission layer sheds).
const perConnWorkers = 32

// opHello is the reserved op binding a connection to a tenant.
const opHello = "hello"

// errFrameTooLarge is the wire message sent before closing a connection
// that declared an oversized frame.
const errFrameTooLarge = "cloud: frame exceeds size limit"

// errTooLarge is readFrameHeader's report of a declared length above the
// limit; the id it returns with it is valid.
var errTooLarge = errors.New("cloud: frame too large")

// frameBufs recycles the buffers frames are encoded into and the buffers
// the server reads payloads into.
var frameBufs crypto.BufPool

// beginFrame reserves the header at the start of an empty buffer; the
// payload is appended after it and finishFrame fills the header in.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], make([]byte, frameHeaderSize)...)
}

// finishFrame writes the header of a frame begun with beginFrame.
func finishFrame(frame []byte, id uint64) error {
	length := len(frame) - 4
	if uint64(length) > math.MaxUint32 {
		return fmt.Errorf("cloud: frame of %d bytes exceeds the length field", length)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(length))
	binary.BigEndian.PutUint64(frame[4:frameHeaderSize], id)
	return nil
}

// readFrameHeader reads one frame header and returns the request id and the
// payload length. A declared length above maxBytes yields errTooLarge with
// the id, so the caller can answer it; the unread payload then makes the
// stream unrecoverable and the caller must close the connection.
func readFrameHeader(br *bufio.Reader, maxBytes int) (id uint64, payloadLen int, err error) {
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		return 0, 0, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	id = binary.BigEndian.Uint64(hdr[4:frameHeaderSize])
	if _, err := br.Discard(frameHeaderSize); err != nil {
		return 0, 0, err
	}
	if length < 8 {
		return 0, 0, fmt.Errorf("cloud: malformed frame length %d", length)
	}
	if uint64(length) > uint64(maxBytes) {
		return id, 0, errTooLarge
	}
	return id, int(length) - 8, nil
}

// readFramePayload reads n payload bytes into buf (reusing its capacity) and
// returns it. The buffer is never sized from n alone: past frameReadChunk it
// at most doubles over the bytes already received, so a peer has to send
// half of whatever it makes this side hold.
func readFramePayload(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), max(frameReadChunk, len(buf)))
		buf = slices.Grow(buf, chunk)
		m, err := io.ReadFull(br, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// FrameServerOptions tunes a FrameServer. The zero value gets defaults from
// NewFrameServer.
type FrameServerOptions struct {
	// MaxFrameBytes rejects frames declaring more than this many bytes
	// (id + payload). Default DefaultMaxFrameBytes.
	MaxFrameBytes int
	// Tenants, when set, makes every connection bind to a tenant namespace
	// with a hello frame before anything else: requests before it fail with
	// ErrNoTenant, and a second hello fails. The backend is then reached
	// only through tenant views.
	Tenants *Tenants
}

// FrameServer serves a Service over the framed multiplexed protocol. Each
// connection gets one reader goroutine plus up to perConnWorkers dispatch
// goroutines; response frames are serialized by a per-connection write
// mutex, so responses from concurrent requests interleave at frame
// granularity, never mid-frame. Safe for concurrent use; Serve may be
// called once per listener.
type FrameServer struct {
	svc  Service
	opts FrameServerOptions
	wg   sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // accepted connections still being read
	closed bool
}

// NewFrameServer wraps svc; call Serve to start accepting connections.
func NewFrameServer(svc Service, opts FrameServerOptions) *FrameServer {
	if opts.MaxFrameBytes <= 0 {
		opts.MaxFrameBytes = DefaultMaxFrameBytes
	}
	return &FrameServer{svc: svc, opts: opts, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close is called. It returns after
// the listener is closed and every connection handler has exited.
func (s *FrameServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		_ = ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("cloud: accept: %w", err)
		}
		if !s.track(conn) {
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers an accepted connection so Close can stop reading it. It
// refuses one accepted after Close.
func (s *FrameServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *FrameServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the server: it closes the listener and stops reading every
// connection, so no new request starts. Requests already dispatched still
// answer; each connection closes once its last one has, and Serve returns
// when all have. Calls after the first do nothing and return nil.
func (s *FrameServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		// A read deadline in the past fails the blocked read at once while
		// leaving the write side open for the answers still owed.
		_ = conn.SetReadDeadline(time.Unix(1, 0))
	}
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// frameConn is the per-connection server state: the serialized writer.
type frameConn struct {
	conn    net.Conn
	writeMu sync.Mutex
}

// respond serializes err into resp, encodes resp into a pooled buffer and
// writes it as one frame.
func (fc *frameConn) respond(id uint64, resp *rpcResponse, err error) error {
	applyRespError(resp, err)
	bp := frameBufs.Get()
	defer frameBufs.Put(bp)
	*bp = appendResponse(beginFrame(*bp), resp)
	if len(*bp)-4 > DefaultMaxFrameBytes {
		// The client would refuse the frame and drop the connection with
		// every call in flight; fail this one call instead.
		var tooLarge rpcResponse
		applyRespError(&tooLarge, errors.New("cloud: response exceeds frame size limit"))
		*bp = appendResponse(beginFrame(*bp), &tooLarge)
	}
	if err := finishFrame(*bp, id); err != nil {
		return err
	}
	fc.writeMu.Lock()
	defer fc.writeMu.Unlock()
	_, err = fc.conn.Write(*bp)
	return err
}

func (s *FrameServer) handle(conn net.Conn) {
	defer conn.Close()
	fc := &frameConn{conn: conn}
	br := bufio.NewReaderSize(conn, frameReadBuffer)
	svc := s.svc
	if s.opts.Tenants != nil {
		svc = nil // no backend until a hello binds a tenant view
	}
	sem := make(chan struct{}, perConnWorkers)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		id, n, err := readFrameHeader(br, s.opts.MaxFrameBytes)
		if err == errTooLarge {
			_ = fc.respond(id, &rpcResponse{}, errors.New(errFrameTooLarge))
			return
		}
		if err != nil {
			return // torn frame, peer gone, malformed length, or Close
		}
		// The request's blob data points into this buffer, so it goes back
		// to the pool only when the request is done with.
		bp := frameBufs.Get()
		if *bp, err = readFramePayload(br, *bp, n); err != nil {
			frameBufs.Put(bp)
			return
		}
		var req rpcRequest
		if err := decodeRequest(*bp, &req); err != nil {
			frameBufs.Put(bp)
			if fc.respond(id, &rpcResponse{}, err) != nil || errors.Is(err, ErrWireVersion) {
				return
			}
			continue
		}
		if req.Op == opHello || svc == nil {
			// A hello, and any frame of a connection still waiting for one,
			// is answered in the read loop, synchronously, so every later
			// frame sees the bound view without locking.
			frameBufs.Put(bp)
			switch {
			case req.Op != opHello:
				err = ErrNoTenant
			case s.opts.Tenants == nil:
				err = errors.New("cloud: server has no tenants configured")
			case svc != nil:
				err = errors.New("cloud: connection already bound to a tenant")
			default:
				var view *TenantView
				if view, err = s.opts.Tenants.View(req.Name); err == nil {
					svc = view
				}
			}
			if fc.respond(id, &rpcResponse{}, err) != nil {
				return
			}
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := dispatch(svc, req)
			_ = fc.respond(id, &resp, err)
			frameBufs.Put(bp)
		}()
	}
}

// FrameClient is a Service over framed connections to one FrameServer
// address. Any number of goroutines may issue calls concurrently; each call
// is tagged with a fresh id, and a per-connection demux goroutine routes
// response frames back by id, so calls complete in the server's completion
// order without head-of-line blocking.
//
// The client holds at most one live connection and redials: a call made
// while there is none — the first call of a client from NewFrameClient, or
// any call after the connection died — dials afresh, re-binding the tenant
// of an earlier Hello before its first request. Calls in flight when a
// connection dies fail with the transport error and are never re-sent, since
// the server may have applied them. Close is terminal.
type FrameClient struct {
	layer // every Service method is one request frame through call

	addr string
	cur  atomic.Pointer[clientConn] // the live connection, if any

	mu     sync.Mutex // serializes dialing, Hello and Close
	tenant string     // bound by Hello; re-bound on every new connection
	closed bool
}

// clientConn is one connection of a FrameClient.
type clientConn struct {
	conn    net.Conn
	writeMu sync.Mutex
	nextID  atomic.Uint64
	dead    atomic.Bool // set with err: the connection takes no more calls

	mu      sync.Mutex
	pending map[uint64]chan rpcResponse
	err     error // terminal transport error, set once
}

// errClientClosed is what every call on a closed FrameClient returns.
var errClientClosed = errors.New("cloud: framed client closed")

// NewFrameClient returns a client for the FrameServer at addr without
// dialing it: the first call connects, so a client can be made for a server
// that is not up yet.
func NewFrameClient(addr string) *FrameClient {
	c := &FrameClient{addr: addr}
	c.layer = layer{c.call}
	return c
}

// DialFramed connects to a FrameServer at addr, reporting a dial failure
// now rather than at the first call.
func DialFramed(addr string) (*FrameClient, error) {
	c := NewFrameClient(addr)
	if _, err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect returns the live connection, dialing one if there is none.
func (c *FrameClient) connect() (*clientConn, error) {
	if cc := c.cur.Load(); cc != nil && !cc.dead.Load() {
		return cc, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connectLocked()
}

func (c *FrameClient) connectLocked() (*clientConn, error) {
	if c.closed {
		return nil, errClientClosed
	}
	if cc := c.cur.Load(); cc != nil && !cc.dead.Load() {
		return cc, nil // another caller dialed while this one waited
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("cloud: dial framed: %w", err)
	}
	cc := &clientConn{conn: conn, pending: make(map[uint64]chan rpcResponse)}
	go cc.readLoop()
	if c.tenant != "" {
		if err := cc.hello(c.tenant); err != nil {
			cc.fail(err)
			return nil, err
		}
	}
	c.cur.Store(cc)
	return cc, nil
}

// Hello binds the client to a tenant namespace, on the current connection
// and on every connection it dials later. A connection binds once: a second
// Hello on a bound client fails, and a failed hello leaves the binding as it
// was.
func (c *FrameClient) Hello(tenant string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cc, err := c.connectLocked()
	if err != nil {
		return err
	}
	if err := cc.hello(tenant); err != nil {
		return err
	}
	c.tenant = tenant
	return nil
}

// Close closes the connection, failing all in-flight calls; the client
// does not redial after it.
func (c *FrameClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if cc := c.cur.Swap(nil); cc != nil {
		return cc.conn.Close()
	}
	return nil
}

// call is the client's hook: one request frame out, one response frame back,
// and the connection stays available to other goroutines meanwhile. The
// server's error comes back as the typed error it was (respError).
func (c *FrameClient) call(req rpcRequest) (rpcResponse, error) {
	cc, err := c.connect()
	if err != nil {
		return rpcResponse{}, err
	}
	resp, err := cc.call(&req)
	if err != nil {
		return rpcResponse{}, err
	}
	return resp, respError(resp)
}

func (cc *clientConn) hello(tenant string) error {
	resp, err := cc.call(&rpcRequest{Op: opHello, Name: tenant})
	if err != nil {
		return err
	}
	return respError(resp)
}

// readLoop is the demux goroutine: it routes each response frame to the
// waiting call by id and, on transport error, fails the connection. Each
// payload is read into its own allocation, which the decoded response's
// blob data points into and the caller thereby owns.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.conn, frameReadBuffer)
	for {
		id, n, err := readFrameHeader(br, DefaultMaxFrameBytes)
		var payload []byte
		if err == nil {
			payload, err = readFramePayload(br, nil, n)
		}
		var resp rpcResponse
		if err == nil {
			err = decodeResponse(payload, &resp)
		}
		if err != nil {
			cc.fail(fmt.Errorf("cloud: framed receive: %w", err))
			return
		}
		cc.mu.Lock()
		ch := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// fail ends the connection: the first error sticks, every pending call is
// failed, and the socket is closed.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		cc.dead.Store(true)
	}
	for id, ch := range cc.pending {
		close(ch)
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
	_ = cc.conn.Close()
}

// send encodes req into a pooled buffer, registers the call under a fresh id
// and writes the frame; the response arrives on the returned channel.
func (cc *clientConn) send(req *rpcRequest) (chan rpcResponse, error) {
	bp := frameBufs.Get()
	defer frameBufs.Put(bp)
	var err error
	if *bp, err = appendRequest(beginFrame(*bp), req); err != nil {
		return nil, err
	}
	id := cc.nextID.Add(1)
	if err := finishFrame(*bp, id); err != nil {
		return nil, err
	}
	ch := make(chan rpcResponse, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return nil, err
	}
	cc.pending[id] = ch
	cc.mu.Unlock()

	cc.writeMu.Lock()
	_, err = cc.conn.Write(*bp)
	cc.writeMu.Unlock()
	if err != nil {
		// A partly written frame leaves the stream unusable.
		err = fmt.Errorf("cloud: framed send: %w", err)
		cc.fail(err)
		return nil, err
	}
	return ch, nil
}

func (cc *clientConn) call(req *rpcRequest) (rpcResponse, error) {
	ch, err := cc.send(req)
	if err != nil {
		return rpcResponse{}, err
	}
	resp, ok := <-ch
	if !ok {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return rpcResponse{}, cc.err // fail closes channels only after setting err
	}
	return resp, nil
}

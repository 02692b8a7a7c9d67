package cloud

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// This file exposes a Service over TCP with a small JSON line protocol, so a
// cell binary (cmd/tccell) can talk to a cloud binary (cmd/tccloud) exactly
// as Figure 1 sketches. Each request is one JSON object on a line; each
// response is one JSON object on a line.

// rpcRequest is the wire format of a request.
type rpcRequest struct {
	Op        string    `json:"op"`
	Name      string    `json:"name,omitempty"`
	Data      []byte    `json:"data,omitempty"`
	Prefix    string    `json:"prefix,omitempty"`
	Recipient string    `json:"recipient,omitempty"`
	Max       int       `json:"max,omitempty"`
	Message   Message   `json:"message,omitempty"`
	Puts      []BlobPut `json:"puts,omitempty"`
	Names     []string  `json:"names,omitempty"`
	Gets      []CondGet `json:"gets,omitempty"`
}

// errCode says which typed error a response's Err text stands for, so the
// client rebuilds the error from the code and never from the text.
type errCode uint8

const (
	codeOK errCode = iota
	codeOther
	codeNotFound
	codeUnavailable
	codeMailboxEmpty
	codeOverloaded
	codeQuota
	codeWireVersion
)

// codeSentinels maps the codes that stand for a sentinel error to it.
var codeSentinels = [...]error{
	codeNotFound:     ErrBlobNotFound,
	codeUnavailable:  ErrUnavailable,
	codeMailboxEmpty: ErrMailboxEmpty,
	codeWireVersion:  ErrWireVersion,
}

// rpcResponse is the wire format of a response. A failed call carries the
// error's text in Err and its type in Code; RetryAfterMs, Tenant and
// Resource carry the fields of typed overload/quota rejections so respError
// can reconstruct them client-side.
type rpcResponse struct {
	Err          string    `json:"err,omitempty"`
	Code         errCode   `json:"code,omitempty"`
	RetryAfterMs int64     `json:"retry_after_ms,omitempty"`
	Tenant       string    `json:"tenant,omitempty"`
	Resource     string    `json:"resource,omitempty"`
	Version      int       `json:"version,omitempty"`
	Blob         *Blob     `json:"blob,omitempty"`
	Names        []string  `json:"names,omitempty"`
	Messages     []Message `json:"messages,omitempty"`
	Stats        *Stats    `json:"stats,omitempty"`
	Versions     []int     `json:"versions,omitempty"`
	Blobs        []Blob    `json:"blobs,omitempty"`
}

// Server serves a Service over a listener.
type Server struct {
	svc Service
	ln  net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewServer wraps svc; call Serve to start accepting connections.
func NewServer(svc Service) *Server { return &Server{svc: svc} }

// Serve accepts connections on ln until Close is called. It returns after the
// listener is closed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
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
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := dispatch(s.svc, req)
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// dispatch executes one wire request against svc. It is shared by the JSON
// line Server and the framed FrameServer, which speak the same request and
// response payloads and differ only in framing and concurrency.
func dispatch(svc Service, req rpcRequest) rpcResponse {
	var resp rpcResponse
	var err error
	switch req.Op {
	case "put":
		resp.Version, err = svc.PutBlob(req.Name, req.Data)
	case "get":
		var b Blob
		b, err = svc.GetBlob(req.Name)
		if err == nil {
			resp.Blob = &b
		}
	case "delete":
		err = svc.DeleteBlob(req.Name)
	case "list":
		resp.Names, err = svc.ListBlobs(req.Prefix)
	case "putb":
		resp.Versions, err = PutBlobsVia(svc, req.Puts)
	case "getb":
		resp.Blobs, err = GetBlobsVia(svc, req.Names)
	case "getc":
		resp.Blobs, err = GetBlobsIfVia(svc, req.Gets)
	case "send":
		err = svc.Send(req.Message)
	case "receive":
		resp.Messages, err = svc.Receive(req.Recipient, req.Max)
	case "stats":
		st := svc.Stats()
		resp.Stats = &st
	default:
		err = fmt.Errorf("cloud: unknown op %q", req.Op)
	}
	applyRespError(&resp, err)
	return resp
}

// applyRespError serializes err into resp: its text, the code of the typed
// error it is (or wraps), and the fields of overload/quota rejections.
func applyRespError(resp *rpcResponse, err error) {
	if err == nil {
		return
	}
	resp.Err = err.Error()
	resp.Code = codeOther
	var retry time.Duration
	var oe *OverloadError
	var qe *QuotaError
	switch {
	case errors.As(err, &oe):
		resp.Code = codeOverloaded
		retry = oe.RetryAfter
	case errors.As(err, &qe):
		resp.Code = codeQuota
		resp.Tenant, resp.Resource = qe.Tenant, qe.Resource
		retry = qe.RetryAfter
	default:
		for code, sentinel := range codeSentinels {
			if sentinel != nil && errors.Is(err, sentinel) {
				resp.Code = errCode(code)
			}
		}
		return
	}
	resp.RetryAfterMs = retry.Milliseconds()
	if resp.RetryAfterMs == 0 && retry > 0 {
		resp.RetryAfterMs = 1 // round sub-millisecond hints up, not to zero
	}
}

// Client is a Service implementation that talks to a remote Server.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a cloud server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cloud: dial: %w", err)
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) call(req rpcRequest) (rpcResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(&req); err != nil {
		return rpcResponse{}, fmt.Errorf("cloud: rpc send: %w", err)
	}
	var resp rpcResponse
	if err := c.dec.Decode(&resp); err != nil {
		return rpcResponse{}, fmt.Errorf("cloud: rpc receive: %w", err)
	}
	return resp, nil
}

// pipeline writes every request before reading the first response, so the
// whole slice shares the connection's round-trip instead of paying one per
// request. The server handles a connection sequentially, which guarantees
// responses come back in request order.
func (c *Client) pipeline(reqs []rpcRequest) ([]rpcResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range reqs {
		if err := c.enc.Encode(&reqs[i]); err != nil {
			return nil, fmt.Errorf("cloud: rpc pipeline send: %w", err)
		}
	}
	resps := make([]rpcResponse, len(reqs))
	for i := range resps {
		if err := c.dec.Decode(&resps[i]); err != nil {
			return nil, fmt.Errorf("cloud: rpc pipeline receive: %w", err)
		}
	}
	return resps, nil
}

// unknownOp reports whether a response error means the server predates the
// requested operation, in which case the client degrades to pipelined
// single-blob requests.
func unknownOp(resp rpcResponse) bool {
	return strings.Contains(resp.Err, "unknown op")
}

// respError turns a wire response back into the error the server-side
// Service returned, from the response's error code: the typed sentinels and
// the retry-after carrying OverloadError/QuotaError come back as themselves,
// so errors.Is/As work across the wire. The text is only ever displayed.
func respError(resp rpcResponse) error {
	if resp.Err == "" && resp.Code == codeOK {
		return nil
	}
	retry := time.Duration(resp.RetryAfterMs) * time.Millisecond
	switch resp.Code {
	case codeOverloaded:
		return &OverloadError{RetryAfter: retry}
	case codeQuota:
		return &QuotaError{Tenant: resp.Tenant, Resource: resp.Resource, RetryAfter: retry}
	}
	if int(resp.Code) < len(codeSentinels) && codeSentinels[resp.Code] != nil {
		sentinel := codeSentinels[resp.Code]
		if resp.Err == sentinel.Error() {
			return sentinel
		}
		return &remoteError{text: resp.Err, sentinel: sentinel}
	}
	return errors.New(resp.Err)
}

// remoteError is a server-side error that wrapped a sentinel: it keeps the
// server's text and still matches the sentinel with errors.Is.
type remoteError struct {
	text     string
	sentinel error
}

func (e *remoteError) Error() string { return e.text }
func (e *remoteError) Unwrap() error { return e.sentinel }

// PutBlob implements Service.
func (c *Client) PutBlob(name string, data []byte) (int, error) {
	resp, err := c.call(rpcRequest{Op: "put", Name: name, Data: data})
	if err != nil {
		return 0, err
	}
	return resp.Version, respError(resp)
}

// GetBlob implements Service.
func (c *Client) GetBlob(name string) (Blob, error) {
	resp, err := c.call(rpcRequest{Op: "get", Name: name})
	if err != nil {
		return Blob{}, err
	}
	if err := respError(resp); err != nil {
		return Blob{}, err
	}
	if resp.Blob == nil {
		return Blob{}, ErrBlobNotFound
	}
	return *resp.Blob, nil
}

// DeleteBlob implements Service.
func (c *Client) DeleteBlob(name string) error {
	resp, err := c.call(rpcRequest{Op: "delete", Name: name})
	if err != nil {
		return err
	}
	return respError(resp)
}

// ListBlobs implements Service.
func (c *Client) ListBlobs(prefix string) ([]string, error) {
	resp, err := c.call(rpcRequest{Op: "list", Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Names, respError(resp)
}

// PutBlobs implements BatchService over the wire: the whole batch is one
// request/response exchange. If the server predates the batch protocol, the
// client falls back to pipelining one request per blob over the persistent
// connection, which still collapses N round-trips into one.
func (c *Client) PutBlobs(puts []BlobPut) ([]int, error) {
	resp, err := c.call(rpcRequest{Op: "putb", Puts: puts})
	if err != nil {
		return nil, err
	}
	if !unknownOp(resp) {
		if err := respError(resp); err != nil {
			return nil, err
		}
		// The provider is untrusted: never hand positional callers a slice
		// whose length the server chose.
		if len(resp.Versions) != len(puts) {
			return nil, fmt.Errorf("cloud: batch put: server returned %d versions for %d blobs", len(resp.Versions), len(puts))
		}
		return resp.Versions, nil
	}
	reqs := make([]rpcRequest, len(puts))
	for i, p := range puts {
		reqs[i] = rpcRequest{Op: "put", Name: p.Name, Data: p.Data}
	}
	resps, err := c.pipeline(reqs)
	if err != nil {
		return nil, err
	}
	versions := make([]int, len(resps))
	for i, r := range resps {
		if err := respError(r); err != nil {
			return nil, err
		}
		versions[i] = r.Version
	}
	return versions, nil
}

// GetBlobs implements BatchService over the wire, with the same pipelined
// fallback as PutBlobs. Missing blobs yield a zero Blob at their position.
func (c *Client) GetBlobs(names []string) ([]Blob, error) {
	resp, err := c.call(rpcRequest{Op: "getb", Names: names})
	if err != nil {
		return nil, err
	}
	if !unknownOp(resp) {
		if err := respError(resp); err != nil {
			return nil, err
		}
		if len(resp.Blobs) != len(names) {
			return nil, fmt.Errorf("cloud: batch get: server returned %d blobs for %d names", len(resp.Blobs), len(names))
		}
		return resp.Blobs, nil
	}
	reqs := make([]rpcRequest, len(names))
	for i, name := range names {
		reqs[i] = rpcRequest{Op: "get", Name: name}
	}
	resps, err := c.pipeline(reqs)
	if err != nil {
		return nil, err
	}
	blobs := make([]Blob, len(resps))
	for i, r := range resps {
		err := respError(r)
		if err == ErrBlobNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		if r.Blob != nil {
			blobs[i] = *r.Blob
		}
	}
	return blobs, nil
}

// GetBlobsIf implements ConditionalBatchService over the wire: the whole
// conditional batch is one request/response exchange, and the server only
// ships data for the blobs that advanced past the requested versions. If the
// server predates the conditional protocol, the client falls back to an
// unconditional GetBlobs and filters locally — correct, without the
// bandwidth savings.
func (c *Client) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	resp, err := c.call(rpcRequest{Op: "getc", Gets: gets})
	if err != nil {
		return nil, err
	}
	if unknownOp(resp) {
		names := make([]string, len(gets))
		for i, g := range gets {
			names[i] = g.Name
		}
		blobs, err := c.GetBlobs(names)
		if err != nil {
			return nil, err
		}
		for i := range blobs {
			if blobs[i].Version <= gets[i].IfNewer {
				blobs[i].Data = nil
			}
		}
		return blobs, nil
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if len(resp.Blobs) != len(gets) {
		return nil, fmt.Errorf("cloud: conditional batch get: server returned %d blobs for %d requests", len(resp.Blobs), len(gets))
	}
	return resp.Blobs, nil
}

// Send implements Service.
func (c *Client) Send(msg Message) error {
	resp, err := c.call(rpcRequest{Op: "send", Message: msg})
	if err != nil {
		return err
	}
	return respError(resp)
}

// Receive implements Service.
func (c *Client) Receive(recipient string, max int) ([]Message, error) {
	resp, err := c.call(rpcRequest{Op: "receive", Recipient: recipient, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Messages, respError(resp)
}

// Stats implements Service.
func (c *Client) Stats() Stats {
	resp, err := c.call(rpcRequest{Op: "stats"})
	if err != nil || resp.Stats == nil {
		return Stats{}
	}
	return *resp.Stats
}

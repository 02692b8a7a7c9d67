package main

import (
	"net"
	"sync/atomic"

	"trustedcells/internal/cloud"
)

// nullService answers every call at once and stores nothing: what is left
// when it stands behind a layer is that layer's own cost. Reads are served a
// canned blob the size of a sealed document, so the response of a batched
// get has its real weight on the wire.
type nullService struct {
	canned []byte
}

func (n *nullService) PutBlob(string, []byte) (int, error) { return 1, nil }
func (n *nullService) GetBlob(name string) (cloud.Blob, error) {
	return cloud.Blob{Name: name, Version: 1, Data: n.canned}, nil
}
func (n *nullService) DeleteBlob(string) error            { return nil }
func (n *nullService) ListBlobs(string) ([]string, error) { return nil, nil }
func (n *nullService) Send(cloud.Message) error           { return nil }
func (n *nullService) Receive(string, int) ([]cloud.Message, error) {
	return nil, nil
}
func (n *nullService) Stats() cloud.Stats { return cloud.Stats{} }

func (n *nullService) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	versions := make([]int, len(puts))
	for i := range versions {
		versions[i] = 1
	}
	return versions, nil
}

func (n *nullService) GetBlobs(names []string) ([]cloud.Blob, error) {
	blobs := make([]cloud.Blob, len(names))
	for i, name := range names {
		blobs[i] = cloud.Blob{Name: name, Version: 1, Data: n.canned}
	}
	return blobs, nil
}

func (n *nullService) GetBlobsIf(gets []cloud.CondGet) ([]cloud.Blob, error) {
	blobs := make([]cloud.Blob, len(gets))
	for i, g := range gets {
		blobs[i] = cloud.Blob{Name: g.Name, Version: 1, Data: n.canned}
	}
	return blobs, nil
}

// wireCounter totals the bytes that crossed a listener's connections, as the
// server saw them.
type wireCounter struct {
	in, out atomic.Int64
}

func (c *wireCounter) total() int64 { return c.in.Load() + c.out.Load() }

type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}

//go:build !(linux && (amd64 || arm64))

package udpnet

import (
	"net"
	"net/netip"
)

// burst is one: without recvmmsg/sendmmsg every datagram is its own call.
// A corked conn still packs the messages of a run to one destination into
// one datagram; a second destination sends the first one's.
const burst = 1

// sockIO is the portable stand-in for the Linux mmsg path: the same
// methods over net.UDPConn's one-datagram calls. Its send can wait for
// socket buffer space (the net package hides EAGAIN), and there is no
// kernel overflow count to report. Receive staging is one pooled slot.
type sockIO struct {
	sock *net.UDPConn
	buf  *[]byte
	n    int
}

func newSockIO(sock *net.UDPConn) (*sockIO, error) { return &sockIO{sock: sock}, nil }

func (s *sockIO) initRx() (release func()) {
	s.buf = largePool.Get().(*[]byte)
	return func() { largePool.Put(s.buf) }
}

func (s *sockIO) recv() (int, error) {
	n, _, err := s.sock.ReadFromUDPAddrPort(*s.buf)
	s.n = n
	return 1, err
}

func (s *sockIO) datagram(int) []byte { return (*s.buf)[:s.n] }

func (s *sockIO) rxDropped() uint32 { return 0 }

func (s *sockIO) send(b *txBatch, from int) (int, error) {
	ap := b.dsts[from].AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()) // the net package rejects v4-mapped peers on an AF_INET socket
	if _, err := s.sock.WriteToUDPAddrPort((*b.bufs[from])[:b.lens[from]], ap); err != nil {
		return 0, err
	}
	return 1, nil
}

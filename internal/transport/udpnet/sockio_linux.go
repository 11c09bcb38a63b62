//go:build linux && (amd64 || arm64)

package udpnet

import (
	"net"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// burst is the most datagrams one recvmmsg or sendmmsg moves. Eight
// amortizes the system call over a multicast fan-out or a client window
// while keeping receive staging at 8 × 64 KiB per conn.
const burst = 8

// rxSlot is one receive staging slot: a full datagram, rounded up to whole
// pages.
const rxSlot = 64 << 10

// mmsghdr is struct mmsghdr of <sys/socket.h> on 64-bit Linux; package
// syscall has the call numbers but not the type.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// sysSendmmsg is sendmmsg(2)'s number, which package syscall (frozen
// before the call existed) defines on arm64 only.
var sysSendmmsg = func() uintptr {
	if runtime.GOARCH == "amd64" {
		return 307
	}
	return 269
}()

// rxqOvfl is the control message SO_RXQ_OVFL attaches to a datagram: the
// socket's running count of datagrams dropped for want of buffer space.
type rxqOvfl struct {
	hdr   syscall.Cmsghdr
	drops uint32
	_     uint32
}

// sockIO issues a conn's socket calls through SyscallConn, so waiting
// stays with the runtime's network poller. The poll functions are built
// once and pass their arguments and results through the struct: a fresh
// closure per call would escape through the RawConn interface.
type sockIO struct {
	raw   syscall.RawConn
	inet6 bool // AF_INET6 (dual-stack) socket: IPv4 peers go v4-mapped

	// Receive side, owned by the reader goroutine. rxMem is the staging
	// slots, mapped outside the Go heap (heap memory if the mapping was
	// refused): only the pages datagrams reach are ever resident, and the
	// collector neither scans the rest nor budgets garbage against it.
	rxMem     []byte
	rxMsgs    [burst]mmsghdr
	rxIovs    [burst]syscall.Iovec
	rxCtl     [burst]rxqOvfl
	rxN       int
	rxErr     syscall.Errno
	rxPoll    func(fd uintptr) bool
	rxDropsAt uint32

	// Send side, guarded by Conn.txMu.
	txMsgs  [burst]mmsghdr
	txIovs  [burst]syscall.Iovec
	txAddrs [burst]syscall.RawSockaddrInet6
	txN     int
	txErr   syscall.Errno
	txPush  func(fd uintptr) bool
	zone    string // last IPv6 zone resolved, and its interface index
	zoneID  uint32
}

func newSockIO(sock *net.UDPConn) (*sockIO, error) {
	raw, err := sock.SyscallConn()
	if err != nil {
		return nil, err
	}
	s := &sockIO{raw: raw}
	err = raw.Control(func(fd uintptr) {
		sa, _ := syscall.Getsockname(int(fd))
		_, s.inet6 = sa.(*syscall.SockaddrInet6)
		// Best-effort: on a kernel without it the overflow count stays 0.
		_ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
	})
	if err != nil {
		return nil, err
	}
	for i := range s.txMsgs {
		h := &s.txMsgs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&s.txAddrs[i]))
		h.Iov, h.Iovlen = &s.txIovs[i], 1
	}
	s.rxPoll = func(fd uintptr) bool {
		s.rxN, s.rxErr = mmsg(syscall.SYS_RECVMMSG, fd, &s.rxMsgs[0], burst)
		return s.rxErr != syscall.EAGAIN // false parks the reader until readable
	}
	s.txPush = func(fd uintptr) bool {
		s.txN, s.txErr = mmsg(sysSendmmsg, fd, &s.txMsgs[0], s.txN)
		return true // never wait for buffer space: EAGAIN is a drop
	}
	return s, nil
}

// mmsg is recvmmsg(2)/sendmmsg(2), non-blocking.
func mmsg(trap, fd uintptr, msgs *mmsghdr, n int) (int, syscall.Errno) {
	for {
		r, _, e := syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(msgs)), uintptr(n), syscall.MSG_DONTWAIT, 0, 0)
		if e != syscall.EINTR {
			return int(r), e
		}
	}
}

// mmap is syscall.Mmap; a test swaps it to refuse the mapping.
var mmap = syscall.Mmap

// initRx maps the receive staging slots; each must fit a full datagram,
// since any datagram of a burst may be a large one. Where the mapping is
// refused the slots come from the heap. The reader calls release when it
// exits; it has copied out everything it delivered.
func (s *sockIO) initRx() (release func()) {
	var err error
	s.rxMem, err = mmap(-1, 0, burst*rxSlot, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	release = func() { _ = syscall.Munmap(s.rxMem) } // fails only on a range that is not a mapping
	if err != nil {
		s.rxMem, release = make([]byte, burst*rxSlot), func() {}
	}
	for i := range s.rxMsgs {
		s.rxIovs[i] = syscall.Iovec{Base: &s.rxMem[i*rxSlot], Len: maxDatagram}
		h := &s.rxMsgs[i].hdr
		h.Iov, h.Iovlen = &s.rxIovs[i], 1
		h.Control = (*byte)(unsafe.Pointer(&s.rxCtl[i]))
	}
	return release
}

// recv blocks until at least one datagram is queued and reads up to a
// burst of them; datagram(i) is valid until the next recv.
func (s *sockIO) recv() (int, error) {
	for i := range s.rxMsgs {
		s.rxMsgs[i].hdr.Controllen = uint64(unsafe.Sizeof(rxqOvfl{}))
	}
	if err := s.raw.Read(s.rxPoll); err != nil {
		return 0, err
	}
	if s.rxErr != 0 {
		return 0, s.rxErr
	}
	// The count is cumulative, so the newest datagram's is the one to keep.
	if last := s.rxN - 1; last >= 0 && s.rxMsgs[last].hdr.Controllen >= uint64(syscall.CmsgLen(4)) {
		if c := &s.rxCtl[last]; c.hdr.Level == syscall.SOL_SOCKET && c.hdr.Type == syscall.SO_RXQ_OVFL {
			s.rxDropsAt = c.drops
		}
	}
	return s.rxN, nil
}

func (s *sockIO) datagram(i int) []byte { return s.rxMem[i*rxSlot:][:s.rxMsgs[i].len] }

// rxDropped is the kernel's cumulative receive-buffer overflow count as
// of the last datagram that carried one.
func (s *sockIO) rxDropped() uint32 { return s.rxDropsAt }

// send transmits the batch's frames from index from on in one sendmmsg
// and reports how many the kernel took; an error concerns frame from.
func (s *sockIO) send(b *txBatch, from int) (int, error) {
	s.txN = b.n - from
	for i := 0; i < s.txN; i++ {
		j := from + i
		s.txIovs[i] = syscall.Iovec{Base: &(*b.bufs[j])[0], Len: uint64(b.lens[j])}
		s.txMsgs[i].hdr.Namelen = s.sockaddr(&s.txAddrs[i], b.dsts[j])
	}
	if err := s.raw.Write(s.txPush); err != nil {
		return 0, err
	}
	if s.txErr != 0 {
		return 0, s.txErr
	}
	return s.txN, nil
}

// sockaddr fills sa for the socket's family and returns its length. A
// host-less address stays all-zero, which the kernel routes to this host
// (as net.UDPConn does); an IPv6 peer on an AF_INET socket gets an
// AF_INET6 address the kernel rejects, which counts as a socket error.
func (s *sockIO) sockaddr(sa *syscall.RawSockaddrInet6, a *net.UDPAddr) uint32 {
	port := uint16(a.Port)<<8 | uint16(a.Port)>>8 // network byte order; both architectures are little-endian
	ip4 := a.IP.To4()
	if !s.inet6 && (ip4 != nil || len(a.IP) == 0) {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: port}
		copy(sa4.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: port, Scope_id: s.scope(a.Zone)}
	if ip4 != nil {
		sa.Addr[10], sa.Addr[11] = 0xff, 0xff // v4-mapped
		copy(sa.Addr[12:], ip4)
	} else {
		copy(sa.Addr[:], a.IP)
	}
	return syscall.SizeofSockaddrInet6
}

// scope resolves an IPv6 zone to its interface index, remembering the
// last answer: a cluster's link-local peers share one interface.
func (s *sockIO) scope(zone string) uint32 {
	if zone != s.zone {
		s.zone, s.zoneID = zone, 0
		if ifi, err := net.InterfaceByName(zone); err == nil {
			s.zoneID = uint32(ifi.Index)
		} else if n, err := strconv.ParseUint(zone, 10, 32); err == nil {
			s.zoneID = uint32(n)
		}
	}
	return s.zoneID
}

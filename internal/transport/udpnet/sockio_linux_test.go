//go:build linux && (amd64 || arm64)

package udpnet

import (
	"sync/atomic"
	"syscall"
	"testing"

	"neobft/internal/transport"
)

// TestUDPStagingFallsBackToHeap refuses the receive-staging mapping: the
// conn must still come up, receive a burst through heap slots, and shut
// down without unmapping memory it never mapped.
func TestUDPStagingFallsBackToHeap(t *testing.T) {
	var refused atomic.Int64
	mmap = func(int, int64, int, int, int) ([]byte, error) {
		refused.Add(1)
		return nil, syscall.ENOMEM
	}
	defer func() { mmap = syscall.Mmap }()

	f := NewLoopback(FabricConfig{})
	src, sink := joinConn(t, f, 0), joinConn(t, f, 1)
	var got atomic.Int64
	sink.SetHandler(func(from transport.NodeID, p []byte) { sink.Send(from, p) })
	src.SetHandler(func(_ transport.NodeID, p []byte) {
		if string(p) == "staged on the heap" {
			got.Add(1)
		}
	})
	for i := 0; i < 3*burst; i++ {
		src.Send(1, []byte("staged on the heap"))
	}
	waitCount(t, &got, 3*burst) // through both readers' slots
	f.Close()
	if n := refused.Load(); n != 2 {
		t.Fatalf("mapping attempted %d times for two conns", n)
	}
}

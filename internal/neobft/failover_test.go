package neobft

import (
	"slices"
	"sync"
	"testing"
	"time"

	"neobft/internal/metrics"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/sequencer"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// TestNoEarlySuspicion: while the sequencer is alive, a client whose own
// route to it is cut does not make the replicas suspect it any earlier
// than RequestTimeout after the client's unicast retry. Other clients'
// aom traffic keeps arriving, so the silence rule never fires; once the
// fallback bound fails the sequencer over, the cut-off client completes
// through the new one.
func TestNoEarlySuspicion(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	cut := c.client(0)
	if _, err := cut.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for i := 1; i <= 2; i++ {
		bg := c.client(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				bg.Invoke([]byte{1}, 5*time.Second)
			}
		}()
	}

	c.net.BlockLink(cut.ID(), c.handles[0].ID, true)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := cut.Invoke([]byte{1}, 10*time.Second)
		done <- err
	}()
	var epochAt time.Duration
	for time.Since(start) < 5*time.Second {
		if v, err := c.svc.View(group); err == nil && v.Epoch > 1 {
			epochAt = time.Since(start)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if epochAt == 0 {
		t.Fatal("the sequencer was never failed over")
	}
	if bound := clientTimeout + fastRequestTimeout; epochAt < bound {
		t.Fatalf("epoch changed %v after the request, before Timeout + RequestTimeout (%v)", epochAt, bound)
	}
	if err := <-done; err != nil {
		t.Fatalf("cut-off client after failover: %v", err)
	}
}

// TestResubmitHeldRequests: the leader of the new epoch sends the new
// sequencer every request it held across the failover, once each, in
// ascending (client, reqID) order, so a pipelined client's older request
// is not made stale by its newer one.
func TestResubmitHeldRequests(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	single := c.client(0)
	piped := c.tunedClient(1, replication.Tuning{Window: 2})
	if _, err := single.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	senders := map[transport.NodeID]bool{}
	var sent []replica.ReqKey
	newSeq := c.handles[1].ID
	c.net.SetTap(func(from, to transport.NodeID, pkt []byte) bool {
		if to != newSeq || from < 1 || int(from) > c.n {
			return true // only replica → new sequencer traffic
		}
		_, payload, err := wire.DecodeAOM(pkt)
		if err != nil {
			return true
		}
		req, err := replication.UnmarshalRequest(requestBody(payload))
		if err != nil {
			return true
		}
		mu.Lock()
		senders[from] = true
		sent = append(sent, replica.KeyOf(req))
		mu.Unlock()
		return true
	})

	c.handles[0].SW.SetFault(sequencer.FaultCrash)
	calls := []replication.Call{
		single.Start([]byte{1}, 5*time.Second),
		piped.Start([]byte{1}, 5*time.Second),
		piped.Start([]byte{1}, 5*time.Second),
	}
	for i, k := range calls {
		if _, err := k.Wait(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	want := []replica.ReqKey{{Client: single.ID(), ReqID: 2}, {Client: piped.ID(), ReqID: 1}, {Client: piped.ID(), ReqID: 2}}
	mu.Lock()
	defer mu.Unlock()
	if len(senders) != 1 {
		t.Fatalf("%d replicas re-submitted, want only the new leader", len(senders))
	}
	if !slices.Equal(sent, want) {
		t.Fatalf("re-submitted %v, want %v", sent, want)
	}
}

// TestClientFollowsEpoch: after a failover the first reply from the new
// epoch moves the client to the new sequencer, so its next request goes
// there directly instead of waiting out a retransmission.
func TestClientFollowsEpoch(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	reg := metrics.NewRegistry()
	cl := c.tunedClient(0, replication.Tuning{Metrics: reg})
	retrans := reg.Counter("client_retransmits_total")
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c.handles[0].SW.SetFault(sequencer.FaultCrash)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatalf("failover: %v", err)
	}
	before := retrans.Load()
	if before == 0 {
		t.Fatal("the failover op completed without a retry; the test is not exercising failover")
	}
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatalf("after failover: %v", err)
	}
	if after := retrans.Load(); after != before {
		t.Fatalf("next request needed %d retransmissions after failover", after-before)
	}
}

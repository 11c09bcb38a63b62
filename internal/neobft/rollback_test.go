package neobft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"neobft/internal/configsvc"
	"neobft/internal/crypto/auth"
	"neobft/internal/crypto/secp256k1"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/transport/transporttest"
	"neobft/internal/wire"
)

type (
	simnetOptions    = simnet.Options
	sequencerOptions = sequencer.Options
)

// TestSpeculativeRollback forces the paper's §5.4 corner case: one
// replica speculatively executes a request whose aom packet every other
// replica missed; the group commits the slot as a no-op, and the
// executed replica must roll application state back and re-execute.
func TestSpeculativeRollback(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Drop the seq-2 multicast toward replicas 0, 1 and 2 (node IDs
	// 1..3); only replica 3 receives and speculatively executes it.
	var mu sync.Mutex
	dropped := map[transport.NodeID]bool{}
	c.net.SetTap(func(from, to transport.NodeID, payload []byte) bool {
		if from != c.handles[0].ID || to > 3 {
			return true
		}
		hdr, _, err := wire.DecodeAOM(payload)
		if err != nil || hdr.Seq != 2 {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		if dropped[to] {
			return true // only the first copy is lost; retries pass
		}
		dropped[to] = true
		return false
	})

	// The request behind seq 2: the client will retry it (new sequence
	// number) after the group skips slot 2.
	res, err := cl.Invoke([]byte{10}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "11" {
		t.Fatalf("result %q, want 11", res)
	}
	c.net.SetTap(nil)

	// Replica 3 must have rolled back its speculative execution of the
	// skipped slot: all replicas converge to the same state (1 + 10).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := 0
		for _, app := range c.apps {
			if app.value() == 11 {
				ok++
			}
		}
		if ok == 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, app := range c.apps {
		if app.value() != 11 {
			t.Fatalf("replica %d state = %d, want 11", i, app.value())
		}
	}
	// The slot was resolved one way or the other through the gap
	// machinery on the replicas that missed it.
	resolved := false
	for _, r := range c.replicas {
		if r.GapAgreements() > 0 {
			resolved = true
		}
	}
	if !resolved {
		t.Log("note: slot recovered via QUERY instead of agreement (also valid)")
	}
	// Continued progress and agreement.
	res, err = cl.Invoke([]byte{1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "12" {
		t.Fatalf("post-rollback result %q, want 12", res)
	}
}

// loneReplica builds replica 1 of a four-replica Neo-HM group on a
// recording conn, for tests that drive its log directly on its loop.
func loneReplica(t *testing.T, app replication.App) *Replica {
	const n, self = 4, 1
	members := []transport.NodeID{1, 2, 3, 4}
	svc := configsvc.New(wire.AuthHMAC, []byte("aom-master"))
	svc.RegisterRemoteSwitch(1000, secp256k1.PublicKey{})
	if _, err := svc.CreateGroup(group, members); err != nil {
		t.Fatal(err)
	}
	r := New(Config{
		Config: replica.Config{
			Self: self, N: n, F: 1, Members: members,
			Conn:       &transporttest.Recorder{Self: members[self]},
			Auth:       auth.NewHMACAuth([]byte("replica-master"), self, n),
			ClientAuth: auth.NewReplicaSide([]byte("client-master"), self),
			App:        app,
		},
		Group:   group,
		Variant: wire.AuthHMAC,
		Svc:     svc,
	})
	t.Cleanup(r.Close)
	return r
}

// clientEntry is an authenticated log entry for client 7's request id
// carrying the one-byte op.
func clientEntry(id uint64, op byte) *logEntry {
	rq := &replication.Request{Client: 7, ReqID: id, Op: []byte{op}}
	return &logEntry{req: rq, authOK: true, epoch: 1, digest: replication.RequestDigest(rq)}
}

// TestRollbackKeepsEarlierRequestDuplicate rolls back a client's request
// 2 while its request 1, executed in the slot before, stays. A duplicated
// stamp of request 1 ordered after the rollback point must not run a
// second time: the rollback puts back the client-table entry request 2
// replaced, instead of forgetting the client.
func TestRollbackKeepsEarlierRequestDuplicate(t *testing.T) {
	app := &counterApp{}
	r := loneReplica(t, app)
	r.Runtime().Call(func() {
		r.appendEntry(clientEntry(1, 1))
		r.appendEntry(clientEntry(2, 1))
		r.executeReady()
		// The group skips slot 2: roll back and rewrite it as a no-op.
		r.rollbackTo(2)
		r.log.Set(2, &logEntry{noOp: true, epoch: 1})
		r.recomputeHashes(2)
		r.executeReady()
		// A duplicated stamp of request 1 lands in slot 3.
		r.appendEntry(clientEntry(1, 1))
		r.executeReady()
	})
	if got := app.value(); got != 1 {
		t.Fatalf("state = %d after request 1, a rolled-back request 2 and a duplicate of request 1; want 1", got)
	}
	if got := r.Committed(); got != 2 {
		t.Fatalf("executed %d operations, want 2 (request 1 and the rolled-back request 2)", got)
	}
}

// readCountApp counts reads: op 0 is a read, which returns no undo
// function; any other op adds itself to a sum and can be undone.
type readCountApp struct {
	counterApp
	reads int
}

func (a *readCountApp) Execute(op []byte) ([]byte, func()) {
	if len(op) > 0 && op[0] == 0 {
		a.reads++
		return []byte(fmt.Sprintf("%d", a.value())), nil
	}
	return a.counterApp.Execute(op)
}

// TestRollbackForgetsReadReply rolls back a slot holding a read, for
// which the App returns no undo function. The client's retry of the read,
// ordered after the rollback point, must execute again instead of being
// answered from the reply cached at the dropped position.
func TestRollbackForgetsReadReply(t *testing.T) {
	app := &readCountApp{}
	r := loneReplica(t, app)
	var reads int
	r.Runtime().Call(func() {
		r.appendEntry(clientEntry(1, 1)) // a write in slot 1
		r.appendEntry(clientEntry(2, 0)) // the read in slot 2
		r.executeReady()
		// The group skips slot 2: roll back and rewrite it as a no-op.
		r.rollbackTo(2)
		r.log.Set(2, &logEntry{noOp: true, epoch: 1})
		r.recomputeHashes(2)
		r.executeReady()
		// The client's retry of the read lands in slot 3.
		r.appendEntry(clientEntry(2, 0))
		r.executeReady()
		reads = app.reads
	})
	if reads != 2 {
		t.Fatalf("the read executed %d times, want 2: its retry after the rollback was answered from the dropped slot's reply", reads)
	}
	if got := app.value(); got != 1 {
		t.Fatalf("state = %d, want 1", got)
	}
}

// TestConvergenceUnderSustainedDrops hammers the cluster with 5% loss on
// every sequencer→replica link and checks that all replicas converge to
// identical state (Fig 9's correctness side).
func TestConvergenceUnderSustainedDrops(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true, netOpts: dropNet(0.05, 99)})
	const clients, each = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := c.client(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke([]byte{1}, 30*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// All replicas converge: same app state, same log length.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		vals := map[int64]int{}
		lens := map[uint64]int{}
		for i := range c.replicas {
			vals[c.apps[i].value()]++
			lens[c.replicas[i].LogLen()]++
		}
		if len(vals) == 1 && len(lens) == 1 && c.apps[0].value() == clients*each {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := range c.replicas {
		t.Logf("replica %d: state=%d log=%d committed=%d gaps=%d status=%v view=%v",
			i, c.apps[i].value(), c.replicas[i].LogLen(), c.replicas[i].Committed(),
			c.replicas[i].GapAgreements(), c.replicas[i].Status(), c.replicas[i].View())
	}
	t.Fatal(fmt.Sprintf("replicas did not converge to %d executed ops", clients*each))
}

// TestPKVariantWithChainingUnderLoad commits a stream of operations with
// a throttled signer: most packets are covered only by the hash chain
// and delivery happens in signed batches.
func TestPKVariantWithChainingUnderLoad(t *testing.T) {
	c := newCluster(t, clusterOpts{
		variant: wire.AuthPK,
		fast:    true,
		swOpts:  swOptsWithRate(50), // ~50 signatures/sec
	})
	cl := c.client(0)
	cl2 := c.client(1)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, cc := range []*Client{cl, cl2} {
		wg.Add(1)
		go func(cc *Client) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := cc.Invoke([]byte{1}, 30*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}(cc)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if !c.waitExecuted(20, 10*time.Second) {
		t.Fatal("replicas did not execute all ops")
	}
	signed := c.handles[0].SW.SignedCount()
	stamped := c.handles[0].SW.Stamped()
	if signed == 0 || stamped == 0 {
		t.Fatal("no traffic through the switch")
	}
	t.Logf("stamped %d packets, signed %d (rest covered by the hash chain)", stamped, signed)
}

// dropNet builds network options that randomly drop sequencer→replica
// multicast with the given probability.
func dropNet(rate float64, seed int64) simnetOptions {
	return simnetOptions{
		DropRate: rate,
		Seed:     seed,
		DropFilter: func(from, to transport.NodeID) bool {
			return from >= 1000 && to <= 100
		},
	}
}

func swOptsWithRate(rate float64) sequencerOptions {
	return sequencerOptions{SignRate: rate, SignBurst: 1}
}

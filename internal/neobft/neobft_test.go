package neobft

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"neobft/internal/configsvc"
	"neobft/internal/crypto/auth"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// counterApp is a tiny state machine with undo support: ops are "add:<b>"
// and the state is the running sum; results echo the new sum.
type counterApp struct {
	mu  sync.Mutex
	sum int64
}

func (a *counterApp) Execute(op []byte) ([]byte, func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var delta int64
	if len(op) > 0 {
		delta = int64(op[0])
	}
	a.sum += delta
	s := a.sum
	return []byte(fmt.Sprintf("%d", s)), func() {
		a.mu.Lock()
		a.sum -= delta
		a.mu.Unlock()
	}
}

func (a *counterApp) value() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum
}

// Freeze/Restore/Digest implement replication.Snapshotter so
// state-transfer tests can verify application state travels with
// checkpoints. The snapshot is the sum as a u64, its digest the
// snapshot's SHA-256.
func (a *counterApp) Freeze() replication.Frozen {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := wire.NewWriter(8)
	w.U64(uint64(a.sum))
	return counterState(w.Bytes())
}

func (a *counterApp) Digest(data []byte) ([32]byte, error) {
	if len(data) != 8 {
		return [32]byte{}, wire.ErrTruncated
	}
	return sha256.Sum256(data), nil
}

var _ replication.Snapshotter = (*counterApp)(nil)

type counterState []byte

func (s counterState) Digest() [32]byte           { return sha256.Sum256(s) }
func (s counterState) Size() int                  { return len(s) }
func (s counterState) AppendTo(buf []byte) []byte { return append(buf, s...) }

// AppendDelta writes the whole sum: the counter is as small as any delta.
func (s counterState) AppendDelta(buf []byte, _ replication.Frozen) ([]byte, bool) {
	return append(buf, s...), true
}

// Patch implements replication.Snapshotter: the delta is the new sum.
func (a *counterApp) Patch(_, delta []byte) ([]byte, error) {
	if _, err := a.Digest(delta); err != nil {
		return nil, err
	}
	return delta, nil
}

func (a *counterApp) Restore(data []byte) error {
	r := wire.NewReader(data)
	sum := int64(r.U64())
	if err := r.Done(); err != nil {
		return err
	}
	a.mu.Lock()
	a.sum = sum
	a.mu.Unlock()
	return nil
}

type cluster struct {
	t        *testing.T
	net      *simnet.Network
	svc      *configsvc.Service
	handles  []configsvc.SwitchHandle
	replicas []*Replica
	apps     []*counterApp
	n, f     int
}

type clusterOpts struct {
	variant   wire.AuthKind
	n         int
	switches  int
	byzantine bool
	netOpts   simnet.Options
	swOpts    sequencer.Options
	fast      bool // aggressive timeouts for failure tests
	// appFactory overrides the default counterApp state machine (tests
	// using it must not read c.apps, which stays nil).
	appFactory func(i int) replication.App
}

const group = 1

// fastRequestTimeout is the fast cluster's sequencer-suspicion bound.
const fastRequestTimeout = 60 * time.Millisecond

func newCluster(t *testing.T, o clusterOpts) *cluster {
	t.Helper()
	if o.n == 0 {
		o.n = 4
	}
	if o.switches == 0 {
		o.switches = 2
	}
	c := &cluster{t: t, n: o.n, f: (o.n - 1) / 3, net: simnet.New(o.netOpts)}
	t.Cleanup(c.net.Close)
	c.svc = configsvc.New(o.variant, []byte("aom-master"))
	for i := 0; i < o.switches; i++ {
		id := transport.NodeID(1000 + i)
		so := o.swOpts
		so.Variant = o.variant
		so.PKSeed = []byte{byte(i + 1)}
		sw := sequencer.New(c.net.Join(id), so)
		h := configsvc.SwitchHandle{ID: id, SW: sw}
		c.handles = append(c.handles, h)
		c.svc.RegisterSwitch(h)
	}
	members := make([]transport.NodeID, o.n)
	for i := range members {
		members[i] = transport.NodeID(i + 1)
	}
	if _, err := c.svc.CreateGroup(group, members); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < o.n; i++ {
		var app replication.App
		if o.appFactory != nil {
			app = o.appFactory(i)
		} else {
			ca := &counterApp{}
			c.apps = append(c.apps, ca)
			app = ca
		}
		cfg := Config{
			Config: replica.Config{
				Self: i, N: o.n, F: c.f,
				Members:    members,
				Conn:       c.net.Join(members[i]),
				Auth:       auth.NewHMACAuth([]byte("replica-master"), i, o.n),
				ClientAuth: auth.NewReplicaSide([]byte("client-master"), i),
				App:        app,
			},
			Group:     group,
			Variant:   o.variant,
			Byzantine: o.byzantine,
			Svc:       c.svc,
		}
		if o.fast {
			cfg.QueryTimeout = 20 * time.Millisecond
			cfg.RequestTimeout = fastRequestTimeout
			cfg.ViewChangeTimeout = 300 * time.Millisecond
			cfg.TickInterval = 5 * time.Millisecond
		}
		r := New(cfg)
		t.Cleanup(r.Close)
		c.replicas = append(c.replicas, r)
	}
	return c
}

// clientTimeout is every test client's initial retransmission interval.
const clientTimeout = 50 * time.Millisecond

func (c *cluster) client(id int) *Client {
	c.t.Helper()
	return c.tunedClient(id, replication.Tuning{})
}

// tunedClient is client with a pipeline window or a metrics registry.
func (c *cluster) tunedClient(id int, tune replication.Tuning) *Client {
	c.t.Helper()
	members := make([]transport.NodeID, c.n)
	for i := range members {
		members[i] = transport.NodeID(i + 1)
	}
	cl, err := NewClient(ClientOptions{
		Conn:     c.net.Join(transport.NodeID(100 + id)),
		Master:   []byte("client-master"),
		N:        c.n,
		F:        c.f,
		Replicas: members,
		Group:    group,
		Svc:      c.svc,
		Timeout:  clientTimeout,
		Tune:     tune,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return cl
}

func (c *cluster) waitExecuted(target uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := 0
		for _, r := range c.replicas {
			if r.Committed() >= target {
				done++
			}
		}
		if done == c.n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func TestNormalOperationHM(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC})
	cl := c.client(0)
	for i := 1; i <= 20; i++ {
		res, err := cl.Invoke([]byte{1}, 5*time.Second)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("op %d: result %q", i, res)
		}
	}
	if !c.waitExecuted(20, 5*time.Second) {
		t.Fatal("not all replicas executed 20 ops")
	}
	for i, app := range c.apps {
		if app.value() != 20 {
			t.Fatalf("replica %d state = %d", i, app.value())
		}
	}
	for i, r := range c.replicas {
		if r.GapAgreements() != 0 || r.ViewChanges() != 0 {
			t.Fatalf("replica %d used recovery protocols in the fast path", i)
		}
	}
}

func TestNormalOperationPK(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthPK})
	cl := c.client(0)
	for i := 1; i <= 5; i++ {
		if _, err := cl.Invoke([]byte{2}, 10*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !c.waitExecuted(5, 5*time.Second) {
		t.Fatal("not all replicas executed")
	}
	for i, app := range c.apps {
		if app.value() != 10 {
			t.Fatalf("replica %d state = %d", i, app.value())
		}
	}
}

func TestNormalOperationByzantineNetworkMode(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, byzantine: true})
	cl := c.client(0)
	for i := 1; i <= 10; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !c.waitExecuted(10, 5*time.Second) {
		t.Fatal("not all replicas executed")
	}
}

func TestMultipleClients(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC})
	const clients, each = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := c.client(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
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
	if !c.waitExecuted(clients*each, 5*time.Second) {
		t.Fatal("not all replicas executed all ops")
	}
	for i, app := range c.apps {
		if app.value() != clients*each {
			t.Fatalf("replica %d state = %d, want %d", i, app.value(), clients*each)
		}
	}
	// All replicas must agree on the log.
	l0 := c.replicas[0].LogLen()
	for i, r := range c.replicas {
		if r.LogLen() != l0 {
			t.Fatalf("replica %d log length %d != %d", i, r.LogLen(), l0)
		}
	}
}

func TestDuplicateRequestsExecuteOnce(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC})
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{5}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Force duplicate deliveries by re-sending the same request bytes
	// straight through aom several times.
	req := &replication.Request{Client: cl.ID(), ReqID: 1, Op: []byte{5}}
	req.Auth = auth.NewClientSide([]byte("client-master"), int64(cl.ID()), c.n).TagVector(req.SignedBody())
	for i := 0; i < 3; i++ {
		cl.sender.Send(req.Marshal())
	}
	time.Sleep(50 * time.Millisecond)
	for i, app := range c.apps {
		if app.value() != 5 {
			t.Fatalf("replica %d executed duplicates: state = %d", i, app.value())
		}
	}
	// The log still grew (aom sequenced the duplicates) but the slots
	// executed as at-most-once no-ops.
	if c.replicas[0].LogLen() < 4 {
		t.Fatalf("log length %d; duplicates should occupy slots", c.replicas[0].LogLen())
	}
}

func TestGapAgreementAllDrop(t *testing.T) {
	// The switch stamps seq 2 but multicasts nothing: every replica sees
	// a drop-notification, and the leader drives the agreement to a
	// committed no-op (§5.4).
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c.handles[0].SW.DropSeq(2)
	// This request's first aom attempt is swallowed; the client's
	// retransmission gets a later sequence number and must commit.
	if _, err := cl.Invoke([]byte{1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.waitExecuted(2, 5*time.Second) {
		t.Fatal("replicas did not execute both ops")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, r := range c.replicas {
			if r.GapAgreements() == 0 {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, r := range c.replicas {
		if r.GapAgreements() == 0 {
			t.Fatalf("replica %d never ran the gap agreement", i)
		}
		if r.ViewChanges() != 0 {
			t.Fatalf("replica %d needed a view change for a simple gap", i)
		}
	}
	for i, app := range c.apps {
		if app.value() != 2 {
			t.Fatalf("replica %d state = %d, want 2", i, app.value())
		}
	}
}

func TestQueryRecoversFromLeader(t *testing.T) {
	// Only replica 3 misses one aom packet; it recovers the ordering
	// certificate from the leader via QUERY without any agreement round.
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Drop exactly one switch→replica-4 packet.
	var dropped sync.Once
	victim := transport.NodeID(4)
	c.net.SetTap(func(from, to transport.NodeID, payload []byte) bool {
		if from == c.handles[0].ID && to == victim {
			ok := true
			dropped.Do(func() { ok = false })
			if !ok {
				c.net.SetTap(nil)
				return false
			}
		}
		return true
	})
	for i := 0; i < 3; i++ {
		if _, err := cl.Invoke([]byte{1}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !c.waitExecuted(4, 10*time.Second) {
		for i, r := range c.replicas {
			t.Logf("replica %d: committed=%d log=%d blocked=%v", i, r.Committed(), r.LogLen(), r.Status())
		}
		t.Fatal("replica 3 did not recover the missed packet")
	}
	for i, app := range c.apps {
		if app.value() != 4 {
			t.Fatalf("replica %d state = %d, want 4", i, app.value())
		}
	}
	if c.replicas[3].GapAgreements() != 0 {
		t.Fatal("single-receiver loss should resolve via QUERY, not agreement")
	}
}

func TestSequencerFailover(t *testing.T) {
	// The sequencer crashes; replicas suspect it through undelivered
	// client-unicast requests, fail over via the configuration service,
	// and run an epoch-switching view change (§5.5, §6.4). The client's
	// first retry is the only wait: replicas suspect the silent sequencer
	// within a tick, before RequestTimeout could fire, and the new leader
	// re-submits the held request instead of waiting for the client's
	// second retry at 3 × Timeout.
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	cl := c.client(0)
	for i := 1; i <= 3; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.handles[0].SW.SetFault(sequencer.FaultCrash)
	start := time.Now()
	res, err := cl.Invoke([]byte{1}, 20*time.Second)
	if err != nil {
		for i, r := range c.replicas {
			t.Logf("replica %d: view=%v status=%v committed=%d", i, r.View(), r.Status(), r.Committed())
		}
		t.Fatalf("failover did not complete: %v", err)
	}
	took := time.Since(start)
	t.Logf("failover + commit took %v", took)
	if string(res) != "4" {
		t.Fatalf("result %q, want 4", res)
	}
	if bound := clientTimeout + fastRequestTimeout; took >= bound {
		t.Fatalf("failover took %v, not under client Timeout + RequestTimeout (%v)", took, bound)
	}
	// All replicas should now be in epoch 2.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, r := range c.replicas {
			if r.View().Epoch < 2 || r.Status() != StatusNormal {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, r := range c.replicas {
		if r.View().Epoch < 2 {
			t.Fatalf("replica %d still in epoch %d", i, r.View().Epoch)
		}
	}
	// The system keeps running in the new epoch.
	for i := 5; i <= 8; i++ {
		res, err := cl.Invoke([]byte{1}, 5*time.Second)
		if err != nil {
			t.Fatalf("post-failover op: %v", err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("post-failover result %q, want %d", res, i)
		}
	}
}

func TestLeaderFailureDuringGap(t *testing.T) {
	// The leader (replica 0) dies AND a packet is dropped: the remaining
	// replicas cannot resolve the gap via QUERY, time out, and elect a
	// new leader who completes the agreement.
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, fast: true})
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c.net.BlockNode(1, true) // replica 0 is node ID 1
	c.handles[0].SW.DropSeq(2)
	res, err := cl.Invoke([]byte{1}, 30*time.Second)
	if err != nil {
		for i, r := range c.replicas {
			t.Logf("replica %d: view=%v status=%v committed=%d log=%d", i, r.View(), r.Status(), r.Committed(), r.LogLen())
		}
		t.Fatalf("cluster did not recover from leader failure: %v", err)
	}
	if string(res) != "2" {
		t.Fatalf("result %q, want 2", res)
	}
	// The surviving replicas moved past leader 0.
	for i := 1; i < 4; i++ {
		v := c.replicas[i].View()
		if v.Leader == 0 {
			t.Fatalf("replica %d still has leader 0 after leader failure", i)
		}
	}
}

func TestStateSyncAdvancesSyncPoint(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC})
	// Default CheckpointInterval is 256; use a client to push past it quickly
	// with a small interval instead.
	for _, r := range c.replicas {
		r.Runtime().Call(func() { r.cfg.CheckpointInterval = 8 })
	}
	cl := c.client(0)
	for i := 0; i < 20; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, r := range c.replicas {
			if r.SyncPoint() < 16 {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	for i, r := range c.replicas {
		t.Logf("replica %d sync point %d", i, r.SyncPoint())
	}
	t.Fatal("sync points did not advance")
}

func TestViewIDPacking(t *testing.T) {
	v := ViewID{Epoch: 7, Leader: 9}
	if UnpackView(v.Pack()) != v {
		t.Fatal("pack/unpack mismatch")
	}
	if !(ViewID{1, 5}).Less(ViewID{2, 0}) {
		t.Fatal("epoch ordering broken")
	}
	if !(ViewID{1, 5}).Less(ViewID{1, 6}) {
		t.Fatal("leader ordering broken")
	}
	if (ViewID{2, 0}).Less(ViewID{1, 9}) {
		t.Fatal("ordering inverted")
	}
	if (ViewID{1, 6}).LeaderIndex(4) != 2 {
		t.Fatal("leader index wrong")
	}
}

func TestRejectsTamperedClientRequests(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC})
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{3}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// A forged request (bad client MAC) goes through aom; replicas must
	// sequence it but execute it as a no-op, leaving state untouched.
	forged := &replication.Request{Client: 999, ReqID: 1, Op: []byte{100}, Auth: make([]byte, 8*c.n)}
	cl.sender.Send(forged.Marshal())
	time.Sleep(50 * time.Millisecond)
	for i, app := range c.apps {
		if app.value() != 3 {
			t.Fatalf("replica %d executed a forged request: %d", i, app.value())
		}
	}
	// And the protocol still makes progress.
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestLargerClusterF2 runs n=7 (f=2): quorums of 5, gap agreement with
// the bigger thresholds, and convergence.
func TestLargerClusterF2(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC, n: 7, fast: true})
	cl := c.client(0)
	for i := 1; i <= 5; i++ {
		res, err := cl.Invoke([]byte{1}, 10*time.Second)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("op %d: result %q", i, res)
		}
	}
	// A group-wide drop now needs 2f+1 = 5 gap-drop votes.
	c.handles[0].SW.DropSeq(6)
	if _, err := cl.Invoke([]byte{1}, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.waitExecuted(6, 10*time.Second) {
		t.Fatal("f=2 cluster did not converge after a gap")
	}
}

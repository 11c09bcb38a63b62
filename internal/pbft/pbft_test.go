package pbft

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

type counterApp struct {
	mu  sync.Mutex
	sum int64
}

func (a *counterApp) Execute(op []byte) ([]byte, func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(op) > 0 {
		a.sum += int64(op[0])
	}
	return []byte(fmt.Sprintf("%d", a.sum)), nil
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
	net      *simnet.Network
	replicas []*Replica
	apps     []*counterApp
	members  []transport.NodeID
	n, f     int
}

func newCluster(t *testing.T, n int, fast bool) *cluster {
	t.Helper()
	c := &cluster{net: simnet.New(simnet.Options{}), n: n, f: (n - 1) / 3}
	t.Cleanup(c.net.Close)
	c.members = make([]transport.NodeID, n)
	for i := range c.members {
		c.members[i] = transport.NodeID(i + 1)
	}
	for i := 0; i < n; i++ {
		app := &counterApp{}
		c.apps = append(c.apps, app)
		cfg := Config{Config: replica.Config{
			Self: i, N: n, F: c.f,
			Members:    c.members,
			Conn:       c.net.Join(c.members[i]),
			Auth:       auth.NewHMACAuth([]byte("replica-master"), i, n),
			ClientAuth: auth.NewReplicaSide([]byte("client-master"), i),
			App:        app,
		}}
		if fast {
			cfg.RequestTimeout = 60 * time.Millisecond
			cfg.ViewChangeTimeout = 300 * time.Millisecond
			cfg.TickInterval = 5 * time.Millisecond
		}
		r := New(cfg)
		t.Cleanup(r.Close)
		c.replicas = append(c.replicas, r)
	}
	return c
}

func (c *cluster) client(t *testing.T, id int) *Client {
	return NewClient(c.net.Join(transport.NodeID(100+id)), []byte("client-master"), c.n, c.f, c.members, replication.Tuning{Timeout: 50 * time.Millisecond})
}

func (c *cluster) waitExecuted(target uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := 0
		for _, r := range c.replicas {
			if r.Executed() >= target {
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

func TestNormalOperation(t *testing.T) {
	c := newCluster(t, 4, false)
	cl := c.client(t, 0)
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
	for i, r := range c.replicas {
		if r.ViewChanges() != 0 {
			t.Fatalf("replica %d view-changed in the fault-free case", i)
		}
	}
}

func TestBatching(t *testing.T) {
	c := newCluster(t, 4, false)
	const clients, each = 8, 5
	// Hold the backups until the primary's queue holds more requests than
	// its window, so at least one batch carries several requests however
	// the clients happen to be scheduled.
	release := holdLoops(t, c.replicas[1:])
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := c.client(t, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke([]byte{1}, 10*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	p := c.replicas[0]
	deadline := time.Now().Add(5 * time.Second)
	for replica.Read(p.Core, p.queue.Len) <= window {
		if time.Now().After(deadline) {
			t.Fatal("the primary's queue never outgrew its window")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if !c.waitExecuted(clients*each, 5*time.Second) {
		t.Fatal("not all ops executed everywhere")
	}
	for i, app := range c.apps {
		if app.value() != clients*each {
			t.Fatalf("replica %d state %d", i, app.value())
		}
	}
	// With 8 concurrent clients, batching must produce fewer slots than ops.
	if lastExec := c.replicas[0].lastExecSnapshot(); lastExec >= clients*each {
		t.Fatalf("no batching: %d slots for %d ops", lastExec, clients*each)
	}
}

// TestLostPrePrepareResent cuts the backups off until the primary's
// queue outgrows its window, so the pre-prepares of the window are lost.
// The primary sends them again before a backup suspects it: the run ends
// in view 0, in about half a RequestTimeout, not after a view change.
func TestLostPrePrepareResent(t *testing.T) {
	c := newCluster(t, 4, false)
	for _, id := range c.members[1:] {
		c.net.BlockNode(id, true)
	}
	start := time.Now()
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := c.client(t, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Invoke([]byte{1}, 10*time.Second); err != nil {
				errs <- err
			}
		}()
	}
	p := c.replicas[0]
	deadline := time.Now().Add(5 * time.Second)
	for replica.Read(p.Core, p.queue.Len) <= window {
		if time.Now().After(deadline) {
			t.Fatal("the primary's queue never outgrew its window")
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range c.members[1:] {
		c.net.BlockNode(id, false)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	for i, r := range c.replicas {
		if v := r.View(); v != 0 {
			t.Fatalf("replica %d is in view %d: the lost pre-prepares cost a view change", i, v)
		}
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("the run took %v", elapsed)
	}
}

func TestPrimaryFailureViewChange(t *testing.T) {
	c := newCluster(t, 4, true)
	cl := c.client(t, 0)
	for i := 1; i <= 3; i++ {
		if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the primary (replica 0, node 1).
	c.net.BlockNode(1, true)
	res, err := cl.Invoke([]byte{1}, 30*time.Second)
	if err != nil {
		for i, r := range c.replicas {
			t.Logf("replica %d: view=%d exec=%d", i, r.View(), r.Executed())
		}
		t.Fatalf("view change did not recover: %v", err)
	}
	if string(res) != "4" {
		t.Fatalf("result %q, want 4", res)
	}
	for i := 1; i < 4; i++ {
		if c.replicas[i].View() == 0 {
			t.Fatalf("replica %d still in view 0", i)
		}
	}
	// Continued progress in the new view.
	for i := 5; i <= 8; i++ {
		res, err := cl.Invoke([]byte{1}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("post-VC result %q, want %d", res, i)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	c := newCluster(t, 4, false)
	cl := c.client(t, 0)
	if _, err := cl.Invoke([]byte{7}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Replay the same request to the primary several times.
	req := &replication.Request{Client: cl.ID(), ReqID: 1, Op: []byte{7}}
	req.Auth = auth.NewClientSide([]byte("client-master"), int64(cl.ID()), 4).TagVector(req.SignedBody())
	for i := 0; i < 5; i++ {
		cl.conn.Send(c.members[0], req.Marshal())
	}
	time.Sleep(50 * time.Millisecond)
	for i, app := range c.apps {
		if app.value() != 7 {
			t.Fatalf("replica %d re-executed a duplicate: %d", i, app.value())
		}
	}
}

func TestRejectsForgedRequests(t *testing.T) {
	c := newCluster(t, 4, false)
	cl := c.client(t, 0)
	forged := &replication.Request{Client: 999, ReqID: 1, Op: []byte{50}, Auth: make([]byte, 32)}
	cl.conn.Send(c.members[0], forged.Marshal())
	time.Sleep(20 * time.Millisecond)
	for i, app := range c.apps {
		if app.value() != 0 {
			t.Fatalf("replica %d executed a forged request", i)
		}
	}
}

// holdLoops parks each replica's runtime loop in a Call until the
// returned release is called (at the latest when t ends). Packets to a
// held replica wait in its queue; none is lost, unlike with simnet's
// BlockNode, whose dropped pre-prepares only a view change would replace.
func holdLoops(t *testing.T, rs []*Replica) (release func()) {
	ch := make(chan struct{})
	release = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(release)
	var held sync.WaitGroup
	for _, r := range rs {
		held.Add(1)
		go r.Runtime().Call(func() {
			held.Done()
			<-ch
		})
	}
	held.Wait()
	return release
}

// lastExecSnapshot exposes lastExec for tests.
func (r *Replica) lastExecSnapshot() int {
	return replica.Read(r.Core, func() int { return int(r.lastExec) })
}

package minbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/usig"
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

type cluster struct {
	net      *simnet.Network
	replicas []*Replica
	apps     []*counterApp
	members  []transport.NodeID
	n, f     int
}

// newCluster builds a MinBFT cluster: n = 2f+1.
func newCluster(t *testing.T, f int) *cluster {
	t.Helper()
	n := 2*f + 1
	c := &cluster{net: simnet.New(simnet.Options{}), n: n, f: f}
	t.Cleanup(c.net.Close)
	c.members = make([]transport.NodeID, n)
	for i := range c.members {
		c.members[i] = transport.NodeID(i + 1)
	}
	for i := 0; i < n; i++ {
		app := &counterApp{}
		c.apps = append(c.apps, app)
		r := New(Config{
			Config: replica.Config{
				Self: i, N: n, F: f,
				Members:    c.members,
				Conn:       c.net.Join(c.members[i]),
				Auth:       auth.NewHMACAuth([]byte("replica-master"), i, n),
				ClientAuth: auth.NewReplicaSide([]byte("client-master"), i),
				App:        app,
			},
			USIG: usig.New(uint32(i), []byte("sgx-master")),
		})
		t.Cleanup(r.Close)
		c.replicas = append(c.replicas, r)
	}
	return c
}

func (c *cluster) client(id int) *replication.Client {
	return NewClient(c.net.Join(transport.NodeID(100+id)), []byte("client-master"),
		c.n, c.f, c.members, replication.Tuning{Timeout: 100 * time.Millisecond})
}

func TestNormalOperation(t *testing.T) {
	c := newCluster(t, 1) // 3 replicas
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
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, r := range c.replicas {
			if r.Executed() >= 20 {
				done++
			}
		}
		if done == c.n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("not all replicas executed")
}

func TestConcurrentClientsAndBatching(t *testing.T) {
	c := newCluster(t, 1)
	const clients, each = 6, 8
	// Hold the backups until the primary's queue holds more requests than
	// its window, so at least one prepare carries several requests however
	// the clients happen to be scheduled.
	release := holdLoops(t, c.replicas[1:])
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := c.client(i)
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
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, app := range c.apps {
			if app.value() == clients*each {
				done++
			}
		}
		if done == c.n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, app := range c.apps {
		if app.value() != clients*each {
			t.Fatalf("replica %d state %d", i, app.value())
		}
	}
	// Batching: the primary's USIG counter (one per prepare) must be
	// well below the op count.
	if got := c.replicas[0].cfg.USIG.Counter(); got >= clients*each {
		t.Fatalf("no batching: %d prepares for %d ops", got, clients*each)
	}
}

// holdLoops parks each replica's runtime loop in a Call until the
// returned release is called (at the latest when t ends). Packets to a
// held replica wait in its queue; none is lost, unlike with simnet's
// BlockNode, whose dropped prepares only a view change would replace.
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

func TestLargerF(t *testing.T) {
	c := newCluster(t, 2) // 5 replicas
	cl := c.client(0)
	for i := 1; i <= 10; i++ {
		if _, err := cl.Invoke([]byte{1}, 10*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestUSIG(t *testing.T) {
	a := usig.New(1, []byte("m"))
	b := usig.New(2, []byte("m"))
	d := [32]byte{1, 2, 3}
	ui1 := a.CreateUI(d)
	ui2 := a.CreateUI(d)
	if ui1.Counter != 1 || ui2.Counter != 2 {
		t.Fatalf("counters %d, %d; want 1, 2", ui1.Counter, ui2.Counter)
	}
	if !b.VerifyUI(1, d, ui1) {
		t.Fatal("peer USIG rejected valid UI")
	}
	if b.VerifyUI(2, d, ui1) {
		t.Fatal("UI accepted under wrong identity")
	}
	bad := ui1
	bad.Counter = 7
	if b.VerifyUI(1, d, bad) {
		t.Fatal("UI with altered counter accepted")
	}
	var d2 [32]byte
	d2[0] = 9
	if b.VerifyUI(1, d2, ui1) {
		t.Fatal("UI accepted for wrong digest")
	}
}

func TestForgedPrepareRejected(t *testing.T) {
	c := newCluster(t, 1)
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	settle := time.Now().Add(5 * time.Second)
	for c.replicas[1].Executed() < 1 && time.Now().Before(settle) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	before := c.replicas[1].Executed()
	// A fake prepare with an invalid UI certificate must be dropped.
	evil := c.net.Join(999)
	pkt := []byte{kindPrepare}
	pkt = append(pkt, make([]byte, 8+8+32+32+4)...) // zeroed fields, empty batch
	evil.Send(c.members[1], pkt)
	time.Sleep(20 * time.Millisecond)
	if c.replicas[1].Executed() != before {
		t.Fatal("forged prepare executed")
	}
}

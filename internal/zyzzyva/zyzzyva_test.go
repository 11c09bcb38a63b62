package zyzzyva

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

type cluster struct {
	net      *simnet.Network
	replicas []*Replica
	members  []transport.NodeID
	n, f     int
}

func newCluster(t *testing.T, n int, silentReplica int) *cluster {
	t.Helper()
	c := &cluster{net: simnet.New(simnet.Options{}), n: n, f: (n - 1) / 3}
	t.Cleanup(c.net.Close)
	c.members = make([]transport.NodeID, n)
	for i := range c.members {
		c.members[i] = transport.NodeID(i + 1)
	}
	for i := 0; i < n; i++ {
		r := New(Config{
			Config: replica.Config{
				Self: i, N: n, F: c.f,
				Members:    c.members,
				Conn:       c.net.Join(c.members[i]),
				Auth:       auth.NewHMACAuth([]byte("replica-master"), i, n),
				ClientAuth: auth.NewReplicaSide([]byte("client-master"), i),
				App:        &counterApp{},
			},
			Silent: i == silentReplica,
		})
		t.Cleanup(r.Close)
		c.replicas = append(c.replicas, r)
	}
	return c
}

func (c *cluster) client(id int, specTimeout time.Duration) *Client {
	return NewClient(c.net.Join(transport.NodeID(100+id)), []byte("client-master"),
		c.n, c.f, c.members, specTimeout, replication.Tuning{Timeout: 100 * time.Millisecond})
}

func TestFastPath(t *testing.T) {
	c := newCluster(t, 4, -1)
	cl := c.client(0, 50*time.Millisecond)
	for i := 1; i <= 20; i++ {
		res, err := cl.Invoke([]byte{1}, 5*time.Second)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("op %d: result %q", i, res)
		}
	}
	fast, slow := cl.FastSlowCounts()
	if fast != 20 || slow != 0 {
		t.Fatalf("fast=%d slow=%d; all fault-free ops must take the fast path", fast, slow)
	}
}

func TestSlowPathWithSilentReplica(t *testing.T) {
	// Replica 3 never responds: the fast path cannot complete and every
	// operation pays the speculative timeout plus the commit round
	// (Zyzzyva-F, Fig 7).
	c := newCluster(t, 4, 3)
	cl := c.client(0, 10*time.Millisecond)
	start := time.Now()
	for i := 1; i <= 5; i++ {
		res, err := cl.Invoke([]byte{1}, 10*time.Second)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("op %d: result %q", i, res)
		}
	}
	elapsed := time.Since(start)
	fast, slow := cl.FastSlowCounts()
	if slow != 5 || fast != 0 {
		t.Fatalf("fast=%d slow=%d; a silent replica must force the slow path", fast, slow)
	}
	if elapsed < 5*10*time.Millisecond {
		t.Fatalf("ops completed in %v; each must wait out the speculative timeout", elapsed)
	}
}

func TestConcurrentClients(t *testing.T) {
	c := newCluster(t, 4, -1)
	const clients, each = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := c.client(i, 50*time.Millisecond)
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
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// All correct replicas executed everything (speculative execution is
	// immediate).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, r := range c.replicas {
			if r.Executed() >= clients*each {
				done++
			}
		}
		if done == c.n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replicas did not execute all operations")
}

func TestHistoryChainVerification(t *testing.T) {
	// A forged order-req with a wrong history hash is rejected.
	c := newCluster(t, 4, -1)
	cl := c.client(0, 50*time.Millisecond)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// All replicas have lastExec 1; a bogus order-req for seq 2 with a
	// broken chain must not execute.
	before := c.replicas[1].Executed()
	evil := c.net.Join(999)
	w := newForgedOrderReq()
	evil.Send(c.members[1], w)
	time.Sleep(20 * time.Millisecond)
	if c.replicas[1].Executed() != before {
		t.Fatal("forged order-req executed")
	}
}

func newForgedOrderReq() []byte {
	// Syntactically plausible but unauthenticated order-req.
	body := orderBody(0, 2, [32]byte{1}, [32]byte{2})
	w := make([]byte, 0, 256)
	w = append(w, kindOrderReq)
	w = append32(w, body)
	w = append32(w, make([]byte, 32)) // bogus tag
	w = append(w, 0, 0, 0, 0)         // zero batch entries... length prefix
	return w
}

func append32(buf, b []byte) []byte {
	buf = append(buf, byte(len(b)), byte(len(b)>>8), byte(len(b)>>16), byte(len(b)>>24))
	return append(buf, b...)
}

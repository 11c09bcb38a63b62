package hotstuff

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

func newCluster(t *testing.T, n int) *cluster {
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
		r := New(Config{Config: replica.Config{
			Self: i, N: n, F: c.f,
			Members:    c.members,
			Conn:       c.net.Join(c.members[i]),
			Auth:       auth.NewHMACAuth([]byte("replica-master"), i, n),
			ClientAuth: auth.NewReplicaSide([]byte("client-master"), i),
			App:        app,
		}})
		t.Cleanup(r.Close)
		c.replicas = append(c.replicas, r)
	}
	return c
}

func (c *cluster) client(id int) *replication.Client {
	return NewClient(c.net.Join(transport.NodeID(100+id)), []byte("client-master"),
		c.n, c.f, c.members, replication.Tuning{Timeout: 100 * time.Millisecond})
}

func TestPipelineCommits(t *testing.T) {
	c := newCluster(t, 4)
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
}

func TestConcurrentClients(t *testing.T) {
	c := newCluster(t, 4)
	const clients, each = 6, 8
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
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// Eventually all replicas converge on the same executed state.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, app := range c.apps {
			if app.value() == clients*each {
				done++
			}
		}
		if done == c.n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	for i, app := range c.apps {
		t.Logf("replica %d state %d", i, app.value())
	}
	t.Fatal("replicas did not converge")
}

func TestLargerCluster(t *testing.T) {
	c := newCluster(t, 7) // f = 2
	cl := c.client(0)
	for i := 1; i <= 10; i++ {
		res, err := cl.Invoke([]byte{1}, 10*time.Second)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("op %d: result %q", i, res)
		}
	}
}

func TestForgedProposalRejected(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.client(0)
	if _, err := cl.Invoke([]byte{1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Let the pipeline finish committing the first op everywhere before
	// taking the baseline.
	settle := time.Now().Add(5 * time.Second)
	for c.replicas[2].Executed() < 1 && time.Now().Before(settle) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	before := c.replicas[2].Executed()
	// Send a structurally valid proposal with a bogus leader tag.
	evil := c.net.Join(999)
	body := proposeBody(100, [32]byte{1})
	pkt := make([]byte, 0, 256)
	pkt = append(pkt, kindPropose)
	pkt = appendVar(pkt, body)
	pkt = appendVar(pkt, make([]byte, 32))
	time.Sleep(5 * time.Millisecond)
	evil.Send(c.members[2], pkt)
	time.Sleep(20 * time.Millisecond)
	if c.replicas[2].Executed() != before {
		t.Fatal("forged proposal affected execution")
	}
}

func appendVar(buf, b []byte) []byte {
	buf = append(buf, byte(len(b)), byte(len(b)>>8), byte(len(b)>>16), byte(len(b)>>24))
	return append(buf, b...)
}

// TestProposalBeforeItsParent delivers later views' proposals ahead of
// view 1's — different leaders' broadcasts, which no network orders — and
// checks the replica keeps the early ones, adopts them once the parent
// lands, and does not stop following the chain. Two of them extend the
// same certified parent (a timed-out view's block and its successor's
// carry the same QC): either may be the one the chain continues from, so
// both must survive the wait.
func TestProposalBeforeItsParent(t *testing.T) {
	c := newCluster(t, 4)
	r := c.replicas[3] // leads none of these views
	genesisQC := &qc{view: 0, block: genesisHash}
	mk := func(view uint64, parent *block, justify *qc) *block {
		var digest [32]byte
		return &block{
			hash: blockHash(view, parent.height+1, parent.hash, digest, justify.block),
			view: view, height: parent.height + 1, parent: parent.hash, digest: digest, justify: justify,
		}
	}
	b1 := mk(1, &block{hash: genesisHash}, genesisQC)
	b2 := mk(2, b1, &qc{view: 1, block: b1.hash})
	b3 := mk(3, b1, &qc{view: 1, block: b1.hash}) // view 2 timed out at its leader
	b4 := mk(4, b3, &qc{view: 3, block: b3.hash}) // the chain goes on from the sibling

	var early, held int
	r.Runtime().Call(func() {
		for _, b := range []*block{b4, b2, b3, b2} { // b2 again: a retransmission
			r.onPropose(b)
		}
		early, held = len(r.blocks), len(r.orphans[b1.hash])
	})
	if early != 1 || held != 2 {
		t.Fatalf("before the parent: %d blocks known (want genesis only), %d held for b1 (want 2)", early, held)
	}
	r.Runtime().Call(func() {
		r.onPropose(b1)
		for i, b := range []*block{b1, b2, b3, b4} {
			if r.blocks[b.hash] == nil {
				t.Errorf("b%d not adopted after the parent arrived", i+1)
			}
		}
		if len(r.orphans) != 0 {
			t.Errorf("%d orphan entries left", len(r.orphans))
		}
		if !r.voted[1] || !r.voted[2] || r.highQC.view != 3 {
			t.Errorf("voted %v/%v, highQC view %d: the replica did not follow the chain", r.voted[1], r.voted[2], r.highQC.view)
		}
	})
}

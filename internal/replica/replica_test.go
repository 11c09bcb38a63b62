package replica

import (
	"bytes"
	"testing"
	"time"

	"neobft/internal/batch"
	"neobft/internal/crypto/auth"
	"neobft/internal/replication"
	"neobft/internal/transport"
	"neobft/internal/transport/transporttest"
)

const (
	clientMaster = "kit-client"
	client       = transport.NodeID(100)
)

// countApp echoes each op and counts executions.
type countApp struct{ n int }

func (a *countApp) Execute(op []byte) ([]byte, func()) {
	a.n++
	return op, func() { a.n-- }
}

// kit is one replica core over a recording conn.
type kit struct {
	core *Core
	conn *transporttest.Recorder
	app  *countApp
}

func newKit(t testing.TB) *kit {
	t.Helper()
	k := &kit{conn: &transporttest.Recorder{Self: 1}, app: &countApp{}}
	k.core = NewCore(&Config{
		N: 1, Members: []transport.NodeID{1}, Conn: k.conn,
		ClientAuth: auth.NewReplicaSide([]byte(clientMaster), 0),
		App:        k.app,
	}, 64, nil)
	t.Cleanup(k.core.Close)
	return k
}

// request builds client's signed request reqID.
func request(reqID uint64, op string) *replication.Request {
	req := &replication.Request{Client: client, ReqID: reqID, Op: []byte(op)}
	req.Auth = auth.NewClientSide([]byte(clientMaster), int64(client), 1).TagVector(req.SignedBody())
	return req
}

// replies returns the reply packets sent to the client so far.
func (k *kit) replies() []transporttest.Packet { return k.conn.Sent(replication.KindReply) }

func TestCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, k *kit)
	}{
		{"duplicate resends the cached reply", func(t *testing.T, k *kit) {
			first, _ := k.core.ExecuteReply(request(1, "a"), replication.Reply{Slot: 1})
			if first == nil {
				t.Fatal("fresh request not executed")
			}
			if again, _ := k.core.ExecuteReply(request(1, "a"), replication.Reply{Slot: 2}); again != nil {
				t.Fatal("duplicate executed again")
			}
			if k.app.n != 1 || k.core.Executed() != 1 {
				t.Fatalf("executed %d times (core counts %d), want 1", k.app.n, k.core.Executed())
			}
			sent := k.replies()
			if len(sent) != 2 || !bytes.Equal(sent[0].Bytes, sent[1].Bytes) || sent[1].To != client {
				t.Fatalf("want the cached reply resent to the client, got %d replies", len(sent))
			}
		}},
		{"stale request is dropped", func(t *testing.T, k *kit) {
			k.core.ExecuteReply(request(2, "b"), replication.Reply{})
			if k.core.Admit(request(1, "a")) {
				t.Fatal("stale request admitted")
			}
			if rep, _ := k.core.Execute(request(1, "a"), replication.Reply{}); rep != nil {
				t.Fatal("stale request executed")
			}
			if len(k.replies()) != 1 || k.app.n != 1 {
				t.Fatalf("stale request answered or executed: %d replies, %d executions", len(k.replies()), k.app.n)
			}
		}},
		{"forged client MAC", func(t *testing.T, k *kit) {
			req := request(1, "a")
			req.Auth[0] ^= 1
			if got := k.core.VerifyRequest(req.Marshal()[1:]); got != nil {
				t.Fatal("forged request verified")
			}
			if n := k.core.Metrics().Counter("proto_auth_fail_total").Load(); n != 1 {
				t.Fatalf("proto_auth_fail_total = %d, want 1", n)
			}
			if got := k.core.VerifyRequest(request(1, "a").Marshal()[1:]); got == nil {
				t.Fatal("genuine request rejected")
			}
		}},
		{"execute returns the undo", func(t *testing.T, k *kit) {
			_, undo := k.core.Execute(request(1, "a"), replication.Reply{})
			if undo == nil || k.app.n != 1 {
				t.Fatal("no undo for an executed request")
			}
			undo()
			if k.app.n != 0 {
				t.Fatal("undo did not reach the app")
			}
			if len(k.replies()) != 0 {
				t.Fatal("Execute sent a reply; only ExecuteReply sends")
			}
		}},
		{"reply verifies at a client", func(t *testing.T, k *kit) {
			ccfg := replication.ClientConfig{
				Conn: &transporttest.Recorder{Self: client}, N: 1, Quorum: 1,
				Auth: auth.NewClientSide([]byte(clientMaster), int64(client), 1),
			}
			var submitted *replication.Request
			ccfg.Submit = func(req *replication.Request, retry bool) {
				if !retry {
					submitted = req
				}
			}
			cl := replication.NewClient(ccfg)
			call := cl.Start([]byte("op"), 5*time.Second)
			k.core.ExecuteReply(submitted, replication.Reply{View: 3, Slot: 7})
			sent := k.replies()
			if len(sent) != 1 || !cl.HandlePacket(1, sent[0].Bytes) {
				t.Fatalf("want one reply packet, got %d", len(sent))
			}
			if res, err := call.Wait(); err != nil || string(res) != "op" {
				t.Fatalf("client got %q, %v", res, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newKit(t)) })
	}
}

func newQueue(k *kit) *Queue {
	return k.core.NewQueue(batch.Config{MaxCount: 64}, func() {})
}

func TestQueueIgnoresQueued(t *testing.T) {
	k := newKit(t)
	q := newQueue(k)
	req := request(1, "a")
	q.Add(req)
	q.Add(request(1, "a")) // a retransmission decodes to a new pointer
	if q.Len() != 1 || !q.Queued(req) {
		t.Fatalf("queue holds %d requests, want 1", q.Len())
	}
	q.Done(req)
	if q.Queued(req) {
		t.Fatal("Done left the request queued")
	}
}

// TestAdmitEnqueueAllocs guards the leader's hot path: admitting and
// queueing a fresh request must not allocate a key per lookup (a
// marshalled string key costs two allocations).
func TestAdmitEnqueueAllocs(t *testing.T) {
	k := newKit(t)
	q := newQueue(k)
	const runs = 1000
	reqs := make([]*replication.Request, runs+1) // AllocsPerRun warms up once
	for i := range reqs {
		reqs[i] = &replication.Request{Client: transport.NodeID(1000 + i), ReqID: 1}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if req := reqs[i]; k.core.Admit(req) {
			q.Add(req)
		}
		i++
	})
	if allocs >= 1 {
		t.Fatalf("admit + enqueue allocates %.1f times per request", allocs)
	}
}

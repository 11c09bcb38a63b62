package replication

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/simnet"
	"neobft/internal/transport"
)

func TestRequestRoundTrip(t *testing.T) {
	r := &Request{Client: 42, ReqID: 7, Op: []byte("put k v"), Auth: []byte{1, 2, 3}}
	buf := r.Marshal()
	if buf[0] != KindRequest {
		t.Fatal("missing envelope kind")
	}
	got, err := UnmarshalRequest(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Client != 42 || got.ReqID != 7 || !bytes.Equal(got.Op, r.Op) || !bytes.Equal(got.Auth, r.Auth) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r := &Reply{View: 3, Replica: 2, Slot: 55, LogHash: [32]byte{9}, ReqID: 7,
		Result: []byte("ok"), Speculative: true, Auth: []byte{4, 5}}
	buf := r.Marshal()
	got, err := UnmarshalReply(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.View != 3 || got.Replica != 2 || got.Slot != 55 || got.LogHash != r.LogHash ||
		got.ReqID != 7 || !got.Speculative || string(got.Result) != "ok" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(client int32, reqID uint64, op []byte) bool {
		r := &Request{Client: transport.NodeID(client), ReqID: reqID, Op: op}
		got, err := UnmarshalRequest(r.Marshal()[1:])
		return err == nil && got.Client == r.Client && got.ReqID == reqID && bytes.Equal(got.Op, op)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignedBodyBindsFields(t *testing.T) {
	a := &Request{Client: 1, ReqID: 1, Op: []byte("x")}
	b := &Request{Client: 1, ReqID: 2, Op: []byte("x")}
	c := &Request{Client: 2, ReqID: 1, Op: []byte("x")}
	d := &Request{Client: 1, ReqID: 1, Op: []byte("y")}
	bodies := map[string]bool{
		string(a.SignedBody()): true, string(b.SignedBody()): true,
		string(c.SignedBody()): true, string(d.SignedBody()): true,
	}
	if len(bodies) != 4 {
		t.Fatal("signed bodies collide across distinct requests")
	}
}

func TestClientTable(t *testing.T) {
	ct := NewClientTable()
	fresh, cached := ct.Check(1, 1)
	if !fresh || cached != nil {
		t.Fatal("first request not fresh")
	}
	rep := &Reply{ReqID: 1, Result: []byte("r1")}
	ct.Store(1, 1, rep)
	fresh, cached = ct.Check(1, 1)
	if fresh || cached != rep {
		t.Fatal("duplicate not detected")
	}
	fresh, cached = ct.Check(1, 0)
	if fresh || cached != nil {
		t.Fatal("stale request not ignored")
	}
	fresh, _ = ct.Check(1, 2)
	if !fresh {
		t.Fatal("next request not fresh")
	}
	id, last, ok := ct.Last(1)
	if !ok || id != 1 || last != rep {
		t.Fatalf("Last = %d, %p, %v; want 1, %p, true", id, last, ok, rep)
	}
	ct.Store(1, 2, nil)
	ct.Revert(1, id, last, ok)
	if fresh, cached = ct.Check(1, 1); fresh || cached != rep {
		t.Fatal("revert did not put back the earlier entry")
	}
	ct.Revert(1, 0, nil, false)
	if _, _, ok := ct.Last(1); ok || ct.Len() != 0 {
		t.Fatal("revert to no entry did not remove the client")
	}
}

func TestChainHash(t *testing.T) {
	var zero [32]byte
	e1 := [32]byte{1}
	e2 := [32]byte{2}
	h1 := ChainHash(zero, e1)
	h2 := ChainHash(h1, e2)
	if h1 == h2 || h1 == zero {
		t.Fatal("degenerate chain hash")
	}
	// Order matters.
	alt := ChainHash(ChainHash(zero, e2), e1)
	if alt == h2 {
		t.Fatal("chain hash commutes; it must not")
	}
}

// TestClientQuorum exercises the closed-loop client against scripted
// replies over simnet.
func TestClientQuorum(t *testing.T) {
	net := simnet.New(simnet.Options{})
	defer net.Close()
	master := []byte("m")
	const n, f = 4, 1

	clientConn := net.Join(100)
	cside := auth.NewClientSide(master, 100, n)
	replicaConns := make([]transport.Conn, n)
	rsides := make([]*auth.ReplicaSide, n)
	for i := 0; i < n; i++ {
		replicaConns[i] = net.Join(transport.NodeID(i))
		rsides[i] = auth.NewReplicaSide(master, i)
	}
	// Replicas echo a reply on request; replica 3 is Byzantine and lies.
	for i := 0; i < n; i++ {
		idx := i
		replicaConns[i].SetHandler(func(from transport.NodeID, pkt []byte) {
			if len(pkt) == 0 || pkt[0] != KindRequest {
				return
			}
			req, err := UnmarshalRequest(pkt[1:])
			if err != nil {
				return
			}
			if !rsides[idx].VerifyClient(int64(req.Client), req.SignedBody(), req.Auth) {
				return
			}
			result := append([]byte("ok:"), req.Op...)
			if idx == 3 {
				result = []byte("LIES")
			}
			rep := &Reply{View: 1, Replica: uint32(idx), Slot: 1, ReqID: req.ReqID, Result: result}
			rep.Auth = rsides[idx].TagFor(int64(req.Client), rep.SignedBody())
			replicaConns[idx].Send(from, rep.Marshal())
		})
	}

	cl := NewClient(ClientConfig{
		Conn: clientConn, N: n, F: f, Quorum: 2*f + 1, MatchPosition: true,
		Auth: cside,
		Submit: func(req *Request, retry bool) {
			pkt := req.Marshal()
			for i := 0; i < n; i++ {
				clientConn.Send(transport.NodeID(i), pkt)
			}
		},
	})
	clientConn.SetHandler(func(from transport.NodeID, pkt []byte) { cl.HandlePacket(from, pkt) })

	result, err := cl.Invoke([]byte("hello"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(result) != "ok:hello" {
		t.Fatalf("result = %q", result)
	}
}

// TestClientRejectsForgedReplies ensures unauthenticated replies never
// count toward the quorum.
func TestClientRejectsForgedReplies(t *testing.T) {
	net := simnet.New(simnet.Options{})
	defer net.Close()
	master := []byte("m")
	const n, f = 4, 1
	clientConn := net.Join(100)
	cside := auth.NewClientSide(master, 100, n)

	forger := net.Join(0)
	forger.SetHandler(func(from transport.NodeID, pkt []byte) {
		if len(pkt) == 0 || pkt[0] != KindRequest {
			return
		}
		req, _ := UnmarshalRequest(pkt[1:])
		// Send 4 replies with distinct replica IDs but no valid MACs.
		for i := 0; i < n; i++ {
			rep := &Reply{Replica: uint32(i), ReqID: req.ReqID, Result: []byte("forged"), Auth: make([]byte, 8)}
			forger.Send(from, rep.Marshal())
		}
	})

	cl := NewClient(ClientConfig{
		Conn: clientConn, N: n, F: f, Quorum: 2*f + 1,
		Auth:    cside,
		Timeout: 10 * time.Millisecond,
		Submit: func(req *Request, retry bool) {
			clientConn.Send(0, req.Marshal())
		},
	})
	clientConn.SetHandler(func(from transport.NodeID, pkt []byte) { cl.HandlePacket(from, pkt) })

	if _, err := cl.Invoke([]byte("x"), 100*time.Millisecond); err == nil {
		t.Fatal("client accepted forged replies")
	}
}

func TestEchoApp(t *testing.T) {
	var app EchoApp
	res, undo := app.Execute([]byte("ping"))
	if string(res) != "ping" || undo != nil {
		t.Fatalf("echo = %q, undo non-nil: %t", res, undo != nil)
	}
}

// TestBundleDelta: a bundle's delta from an earlier one carries the
// application's delta and the whole client table, and PatchBundle turns
// the earlier bundle's bytes into the newer one's; a bundle has no delta
// from a state that is not a bundle.
func TestBundleDelta(t *testing.T) {
	table := NewClientTable()
	old := Capture(EchoApp{}, table)
	table.Store(7, 1, &Reply{ReqID: 1, Result: []byte("r")})
	cur := Capture(EchoApp{}, table)
	delta, ok := cur.AppendDelta(nil, old)
	if !ok {
		t.Fatal("no delta between two bundles")
	}
	got, err := PatchBundle(EchoApp{}, old.AppendTo(nil), delta)
	if err != nil || !bytes.Equal(got, cur.AppendTo(nil)) {
		t.Fatalf("patched bundle differs (%v)", err)
	}
	if d, err := BundleDigest(EchoApp{}, got); err != nil || d != cur.Digest() {
		t.Fatalf("patched digest %x, want %x (%v)", d, cur.Digest(), err)
	}
	if _, ok := cur.AppendDelta(nil, emptyState{}); ok {
		t.Fatal("delta from a state that is not a bundle")
	}
	for name, d := range map[string][]byte{"truncated": delta[:len(delta)-1], "trailing": append(delta, 0), "app delta": {1, 0, 0, 0, 9, 0, 0, 0, 0}} {
		if _, err := PatchBundle(EchoApp{}, old.AppendTo(nil), d); err == nil {
			t.Errorf("%s: PatchBundle accepted it", name)
		}
	}
}

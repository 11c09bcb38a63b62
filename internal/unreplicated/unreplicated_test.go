package unreplicated

import (
	"bytes"
	"testing"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/simnet"
)

// echoServer starts an echo server as node 1 of net.
func echoServer(t *testing.T, net *simnet.Network) *Server {
	srv := New(Config{replica.Config{
		Conn:       net.Join(1),
		App:        replication.EchoApp{},
		ClientAuth: auth.NewReplicaSide([]byte("m"), 0),
	}})
	t.Cleanup(srv.Close)
	return srv
}

func rig(t *testing.T) (*Server, *replication.Client) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	srv := echoServer(t, net)
	cl := NewClient(net.Join(100), 1, []byte("m"), replication.Tuning{Timeout: 50 * time.Millisecond})
	return srv, cl
}

func TestEchoRoundTrip(t *testing.T) {
	srv, cl := rig(t)
	for i := 0; i < 5; i++ {
		res, err := cl.Invoke([]byte{byte(i)}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, []byte{byte(i)}) {
			t.Fatalf("echo %d = %v", i, res)
		}
	}
	if srv.Executed() != 5 {
		t.Fatalf("ops = %d", srv.Executed())
	}
}

func TestDuplicateSuppressed(t *testing.T) {
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	srv := echoServer(t, net)
	conn := net.Join(100)
	cl := NewClient(conn, 1, []byte("m"), replication.Tuning{Timeout: 50 * time.Millisecond})
	if _, err := cl.Invoke([]byte("once"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Replay the identical request; the server must not re-execute.
	req := &replication.Request{Client: 100, ReqID: 1, Op: []byte("once")}
	req.Auth = auth.NewClientSide([]byte("m"), 100, 1).TagVector(req.SignedBody())
	for i := 0; i < 3; i++ {
		conn.Send(1, req.Marshal())
	}
	time.Sleep(20 * time.Millisecond)
	if srv.Executed() != 1 {
		t.Fatalf("duplicates executed: ops = %d", srv.Executed())
	}
}

func TestForgedRequestRejected(t *testing.T) {
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	srv := echoServer(t, net)
	evil := net.Join(200)
	req := &replication.Request{Client: 200, ReqID: 1, Op: []byte("x"), Auth: make([]byte, 8)}
	evil.Send(1, req.Marshal())
	time.Sleep(10 * time.Millisecond)
	if srv.Executed() != 0 {
		t.Fatal("forged request executed")
	}
}

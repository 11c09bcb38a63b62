package neobft

import (
	"fmt"
	"net"
	"testing"
	"time"

	"neobft/internal/configsvc"
	"neobft/internal/crypto/auth"
	"neobft/internal/replica"
	"neobft/internal/sequencer"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
	"neobft/internal/wire"
)

// TestEndToEndOverUDP runs the full NeoBFT stack — software sequencer,
// four replicas, one client — over real UDP loopback sockets, proving
// the protocol code is transport-agnostic.
func TestEndToEndOverUDP(t *testing.T) {
	const n, f = 4, 1
	entries := map[transport.NodeID]string{}
	alloc := func(id transport.NodeID) {
		l, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		entries[id] = l.LocalAddr().String()
		l.Close()
	}
	seqID := transport.NodeID(100)
	clientID := transport.NodeID(200)
	members := make([]transport.NodeID, n)
	alloc(seqID)
	alloc(clientID)
	for i := range members {
		members[i] = transport.NodeID(i + 1)
		alloc(members[i])
	}
	book, err := udpnet.NewAddressBook(entries)
	if err != nil {
		t.Fatal(err)
	}

	svc := configsvc.New(wire.AuthHMAC, []byte("aom-master"))
	seqConn, err := udpnet.Listen(seqID, book)
	if err != nil {
		t.Fatal(err)
	}
	defer seqConn.Close()
	sw := sequencer.New(seqConn, sequencer.Options{Variant: wire.AuthHMAC})
	svc.RegisterSwitch(configsvc.SwitchHandle{ID: seqID, SW: sw})
	if _, err := svc.CreateGroup(1, members); err != nil {
		t.Fatal(err)
	}

	apps := make([]*counterApp, n)
	for i := 0; i < n; i++ {
		conn, err := udpnet.Listen(members[i], book)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		apps[i] = &counterApp{}
		r := New(Config{
			Config: replica.Config{
				Self: i, N: n, F: f,
				Members:    members,
				Conn:       conn,
				Auth:       auth.NewHMACAuth([]byte("replica-master"), i, n),
				ClientAuth: auth.NewReplicaSide([]byte("client-master"), i),
				App:        apps[i],
			},
			Group:   1,
			Variant: wire.AuthHMAC,
			Svc:     svc,
		})
		defer r.Close()
	}

	clientConn, err := udpnet.Listen(clientID, book)
	if err != nil {
		t.Fatal(err)
	}
	defer clientConn.Close()
	cl, err := NewClient(ClientOptions{
		Conn:     clientConn,
		Master:   []byte("client-master"),
		N:        n,
		F:        f,
		Replicas: members,
		Group:    1,
		Svc:      svc,
		Timeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		res, err := cl.Invoke([]byte{1}, 10*time.Second)
		if err != nil {
			t.Fatalf("op %d over UDP: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("op %d: result %q", i, res)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := 0
		for _, a := range apps {
			if a.value() == 10 {
				ok++
			}
		}
		if ok == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replicas did not converge over UDP")
}

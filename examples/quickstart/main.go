// Quickstart: a four-replica NeoBFT cluster replicating an echo service
// over the simulated data-center network, committing operations in a
// single round trip through the aom sequencer.
package main

import (
	"fmt"
	"log"
	"time"

	"neobft/internal/configsvc"
	"neobft/internal/crypto/auth"
	"neobft/internal/neobft"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

func main() {
	const (
		n     = 4
		f     = 1
		group = 1
	)

	// 1. A simulated data-center network.
	net := simnet.New(simnet.Options{})
	defer net.Close()

	// 2. The aom sequencer switch, managed by the configuration service.
	svc := configsvc.New(wire.AuthHMAC, []byte("aom-master"))
	seqID := transport.NodeID(100)
	sw := sequencer.New(net.Join(seqID), sequencer.Options{Variant: wire.AuthHMAC})
	svc.RegisterSwitch(configsvc.SwitchHandle{ID: seqID, SW: sw})

	members := []transport.NodeID{1, 2, 3, 4}
	if _, err := svc.CreateGroup(group, members); err != nil {
		log.Fatal(err)
	}

	// 3. Four NeoBFT replicas running an echo state machine.
	for i := 0; i < n; i++ {
		r := neobft.New(neobft.Config{
			Config: replica.Config{
				Self: i, N: n, F: f,
				Members:    members,
				Conn:       net.Join(members[i]),
				Auth:       auth.NewHMACAuth([]byte("replica-master"), i, n),
				ClientAuth: auth.NewReplicaSide([]byte("client-master"), i),
				App:        replication.EchoApp{},
			},
			Group:   group,
			Variant: wire.AuthHMAC,
			Svc:     svc,
		})
		defer r.Close()
	}

	// 4. A client multicasting signed requests through aom.
	client, err := neobft.NewClient(neobft.ClientOptions{
		Conn:     net.Join(500),
		Master:   []byte("client-master"),
		N:        n,
		F:        f,
		Replicas: members,
		Group:    group,
		Svc:      svc,
	})
	if err != nil {
		log.Fatal(err)
	}

	for i := 1; i <= 5; i++ {
		op := fmt.Sprintf("hello %d", i)
		start := time.Now()
		result, err := client.Invoke([]byte(op), 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("op %q → %q (committed by 2f+1 replicas in %v)\n", op, result, time.Since(start))
	}
	fmt.Println("every operation was sequenced by the switch and committed in one round trip")
}

package bench

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"neobft/internal/simnet"
	"neobft/internal/transport"
)

// TestReceivedPacketsUnchanged checks the transport contract the
// decoders rely on: received bytes are shared and read-only. simnet hands
// one slice to every member of a multicast, so a handler that wrote into
// a decoded field would change what the others receive. A tap keeps a
// copy of every packet sent; after a few hundred operations every slice
// must still equal its copy.
func TestReceivedPacketsUnchanged(t *testing.T) {
	for _, p := range []Protocol{NeoHM, PBFT} {
		t.Run(string(p), func(t *testing.T) {
			sys := Build(Options{Protocol: p})
			var mu sync.Mutex
			var sent, kept [][]byte
			sys.Net.(simnet.Fabric).SetTap(func(_, _ transport.NodeID, pkt []byte) bool {
				mu.Lock()
				sent, kept = append(sent, pkt), append(kept, bytes.Clone(pkt))
				mu.Unlock()
				return true
			})
			const clients, each = 3, 100
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				cl := sys.NewClient(i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < each; j++ {
						op := []byte(fmt.Sprintf("op-%d-%d", i, j))
						if res, err := cl.Invoke(op, 5*time.Second); err != nil || !bytes.Equal(res, op) {
							errs <- fmt.Errorf("op %q: result %q, %v", op, res, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			sys.Close()
			mu.Lock()
			defer mu.Unlock()
			for i := range sent {
				if !bytes.Equal(sent[i], kept[i]) {
					t.Fatalf("packet %d of %d changed after it was sent:\n was %x\n now %x", i, len(sent), kept[i], sent[i])
				}
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if len(sent) < clients*each {
				t.Fatalf("the tap saw %d packets for %d operations", len(sent), clients*each)
			}
		})
	}
}

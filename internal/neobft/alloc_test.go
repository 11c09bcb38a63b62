package neobft

import (
	"testing"

	"neobft/internal/aom"
	"neobft/internal/crypto/auth"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/wire"
)

// TestAppendExecuteReplyAllocs pins the replica's per-operation path,
// from an ordered delivery whose request a verification worker already
// decoded and checked to the reply on the wire: the reply, its MAC and
// its packet are the only allocations.
func TestAppendExecuteReplyAllocs(t *testing.T) {
	c := newCluster(t, clusterOpts{variant: wire.AuthHMAC,
		appFactory: func(int) replication.App { return replication.EchoApp{} }})
	r := c.replicas[0]
	const runs = 200 // below the first checkpoint at slot 256
	const client = 500
	cauth := auth.NewClientSide([]byte("client-master"), client, c.n)
	ds := make([]aom.Delivery, runs+1)
	for i := range ds {
		req := &replication.Request{Client: client, ReqID: uint64(i + 1), Op: []byte("op")}
		req.Auth = cauth.TagVector(req.SignedBody())
		payload := req.Marshal()
		cert := &aom.OrderingCert{Kind: wire.AuthHMAC, Group: group, Epoch: 1, Seq: uint64(i + 1),
			Digest: wire.Digest(payload), Payload: payload}
		ds[i] = aom.Delivery{Epoch: 1, Seq: cert.Seq, Payload: payload, Cert: cert, Decoded: r.checkRequest(payload)}
	}
	next := 0
	allocs := replica.Read(r.Core, func() float64 {
		return testing.AllocsPerRun(runs, func() {
			r.processDelivery(ds[next])
			next++
		})
	})
	if got := r.Executed(); got != runs+1 {
		t.Fatalf("executed %d slots, want %d", got, runs+1)
	}
	if allocs != 3 {
		t.Errorf("append, execute and reply allocate %v times per operation, want 3", allocs)
	}
}

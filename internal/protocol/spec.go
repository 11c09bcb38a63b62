// Package protocol holds the one decision every harness and binary in
// this repository shares: how a replica node of a given protocol is
// assembled, persisted, stopped and rebooted. A Spec describes one
// system under test — fleet size, the replica and client factories, and
// the capabilities a harness may rely on — and a Host (host.go) runs one
// replica of it. internal/bench drives its experiments and chaos
// lifecycle from the table, and cmd/neokv boots its processes from it,
// so every protocol is built the same way everywhere.
package protocol

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"neobft/internal/batch"
	"neobft/internal/configsvc"
	"neobft/internal/hotstuff"
	"neobft/internal/minbft"
	"neobft/internal/neobft"
	"neobft/internal/pbft"
	"neobft/internal/replica"
	"neobft/internal/replication"
	"neobft/internal/transport"
	"neobft/internal/unreplicated"
	"neobft/internal/usig"
	"neobft/internal/wire"
	"neobft/internal/zyzzyva"
)

// Group is the aom group every assembled system uses, and AOMMaster the
// master secret its configuration service derives epoch keys from. All
// key material derives deterministically from compiled-in secrets, so
// processes of one cluster need no further coordination.
const (
	Group     = 1
	AOMMaster = "aom-master"

	replicaMaster = "replica-master"
	clientMaster  = "client-master"
	usigMaster    = "sgx-master"

	// usigDelay models the SGX enclave-transition cost per USIG call: the
	// order of an ECALL/OCALL round trip.
	usigDelay = 10 * time.Microsecond
	// zyzzyvaSpecTimeout is how long a Zyzzyva client waits for all 3f+1
	// speculative replies. On a shared single core the 4th response can
	// lag; a generous timeout keeps fault-free Zyzzyva on its fast path
	// while still penalizing Zyzzyva-F heavily per operation.
	zyzzyvaSpecTimeout = 20 * time.Millisecond
)

// Replica is the surface a Host needs from a running protocol replica.
// Executed is the progress catch-up is measured with: for NeoBFT the
// highest executed slot (a restored replica resumes at its checkpoint
// slot), for the baselines the operations this incarnation has executed.
// A replica that counts client operations apart from that also
// implements Committed() uint64 (NeoBFT: slots include gap no-ops).
type Replica interface {
	Persist() []byte
	Executed() uint64
	Close()
}

// Client is a protocol client: closed-loop Invoke plus pipelined Start.
type Client interface {
	Invoke(op []byte, deadline time.Duration) ([]byte, error)
	Start(op []byte, deadline time.Duration) replication.Call
}

// Params are the per-build knobs the replica factories read. Zero values
// keep each protocol's default.
type Params struct {
	// Batch configures the leader batcher of the batching baselines.
	Batch batch.Config
	// CheckpointInterval is the slot interval between checkpoints
	// (NeoBFT sync points, stable checkpoints, compaction).
	CheckpointInterval int
	// ConfirmFlushEvery batches Neo-BN confirm messages.
	ConfirmFlushEvery time.Duration
	// VerifyWorkers is each replica runtime's verification worker count
	// (0 = the runtime's placement rule, negative = inline).
	VerifyWorkers int
}

// Spec describes one system under test.
type Spec struct {
	// Name is the canonical name used in the paper's figures.
	Name    string
	aliases []string
	// Variant is the aom authenticator of the in-network sequencer the
	// system orders through; AuthNone for systems that order at a leader.
	Variant wire.AuthKind
	// Byzantine enables the Byzantine-network confirm exchange (Neo-BN).
	Byzantine bool
	// SilentLast makes the last replica mute (Zyzzyva-F).
	SilentLast bool
	// ViewChange reports that replicas replace a faulty leader.
	ViewChange bool

	// fleet maps f to the replica count; nil means the 3f+1-style n asked for.
	fleet   func(f int) int
	replica func(h *Host, restore []byte) Replica
	client  func(c *Cluster, conn transport.Conn, tune replication.Tuning) (Client, error)
}

// Sequencer reports whether the system needs sequencer switches and a
// configuration service.
func (s *Spec) Sequencer() bool { return s.Variant != wire.AuthNone }

// specs lists the systems in the paper's presentation order: nine names
// over six implementations, told apart by the variant fields.
var specs = []*Spec{
	{Name: "Unreplicated", fleet: func(int) int { return 1 }, replica: newUnreplicated, client: newUnreplicatedClient},
	{Name: "Neo-HM", aliases: []string{"neobft", "neo"}, Variant: wire.AuthHMAC, ViewChange: true, replica: newNeo, client: newNeoClient},
	{Name: "Neo-PK", Variant: wire.AuthPK, ViewChange: true, replica: newNeo, client: newNeoClient},
	{Name: "Neo-BN", Variant: wire.AuthHMAC, Byzantine: true, ViewChange: true, replica: newNeo, client: newNeoClient},
	{Name: "Zyzzyva", replica: newZyzzyva, client: newZyzzyvaClient},
	{Name: "Zyzzyva-F", SilentLast: true, replica: newZyzzyva, client: newZyzzyvaClient},
	{Name: "PBFT", ViewChange: true, replica: newPBFT, client: newPBFTClient},
	{Name: "HotStuff", replica: newHotStuff, client: newHotStuffClient},
	// Trusted components reduce the replication factor to 2f+1.
	{Name: "MinBFT", fleet: func(f int) int { return 2*f + 1 }, replica: newMinBFT, client: newMinBFTClient},
}

// fold normalizes a protocol name for lookup: case and dashes are ignored.
func fold(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "-", ""))
}

// Lookup resolves a canonical name ("Neo-HM") or a CLI alias ("neobft",
// "neo-pk", "zyzzyvaf") to its spec.
func Lookup(name string) (*Spec, error) {
	key := fold(name)
	for _, s := range specs {
		if fold(s.Name) == key || slices.Contains(s.aliases, key) {
			return s, nil
		}
	}
	known := make([]string, len(specs))
	for i, s := range specs {
		known[i] = s.Name
	}
	return nil, fmt.Errorf("unknown protocol %q (have %s)", name, strings.Join(known, ", "))
}

// Cluster is what every node of one built system agrees on.
type Cluster struct {
	Spec *Spec
	Params
	// N is the replica count actually built and F the faults tolerated.
	N, F int
	// Members are the replica node IDs in replica-index order: 1..N
	// unless a deployment with its own address plan replaces them before
	// any host boots.
	Members []transport.NodeID
	// Svc is the configuration service; systems with a sequencer need it
	// set, with Group created, before any host boots.
	Svc *configsvc.Service
}

// FleetSize reports how many replicas a cluster asked for with a
// 3f+1-style count n has (0 = the default 4).
func (s *Spec) FleetSize(n int) int { return s.Cluster(n, Params{}).N }

// Cluster sizes a system from a 3f+1-style replica count n (0 = 4).
func (s *Spec) Cluster(n int, p Params) *Cluster {
	if n == 0 {
		n = 4
	}
	f := max(1, (n-1)/3)
	if s.fleet != nil {
		n = s.fleet(f)
	}
	c := &Cluster{Spec: s, Params: p, N: n, F: f, Members: make([]transport.NodeID, n)}
	for i := range c.Members {
		c.Members[i] = transport.NodeID(i + 1)
	}
	return c
}

// NewClient builds a protocol client on conn.
func (c *Cluster) NewClient(conn transport.Conn, tune replication.Tuning) (Client, error) {
	return c.Spec.client(c, conn, tune)
}

// replicaConfig fills the configuration every protocol shares from the
// host and its cluster.
func (h *Host) replicaConfig(restore []byte) replica.Config {
	c := h.cfg.Cluster
	cfg := replica.Config{
		Self: h.cfg.Index, N: c.N, F: c.F,
		Members:            c.Members,
		Conn:               h.conn,
		ClientAuth:         h.clientAuth,
		App:                h.app,
		CheckpointInterval: c.CheckpointInterval,
		Runtime:            h.rt,
		Metrics:            h.cfg.Metrics,
		Restore:            restore,
	}
	if h.auth != nil { // a fleet of one has no peers to authenticate
		cfg.Auth = h.auth
	}
	return cfg
}

func newNeo(h *Host, restore []byte) Replica {
	c := h.cfg.Cluster
	return neobft.New(neobft.Config{
		Config:            h.replicaConfig(restore),
		Group:             Group,
		Variant:           c.Spec.Variant,
		Byzantine:         c.Spec.Byzantine,
		ConfirmFlushEvery: c.ConfirmFlushEvery,
		ConfirmBatch:      16,
		Svc:               c.Svc,
	})
}

func newNeoClient(c *Cluster, conn transport.Conn, tune replication.Tuning) (Client, error) {
	return neobft.NewClient(neobft.ClientOptions{
		Conn:     conn,
		Master:   []byte(clientMaster),
		N:        c.N,
		F:        c.F,
		Replicas: c.Members,
		Group:    Group,
		Svc:      c.Svc,
		Tune:     tune,
	})
}

func newPBFT(h *Host, restore []byte) Replica {
	return pbft.New(pbft.Config{Config: h.replicaConfig(restore), Batch: h.cfg.Cluster.Batch})
}

func newPBFTClient(c *Cluster, conn transport.Conn, tune replication.Tuning) (Client, error) {
	return pbft.NewClient(conn, []byte(clientMaster), c.N, c.F, c.Members, tune), nil
}

func newZyzzyva(h *Host, restore []byte) Replica {
	c := h.cfg.Cluster
	return zyzzyva.New(zyzzyva.Config{
		Config: h.replicaConfig(restore),
		Batch:  c.Batch,
		Silent: c.Spec.SilentLast && h.cfg.Index == c.N-1,
	})
}

func newZyzzyvaClient(c *Cluster, conn transport.Conn, tune replication.Tuning) (Client, error) {
	return zyzzyva.NewClient(conn, []byte(clientMaster), c.N, c.F, c.Members, zyzzyvaSpecTimeout, tune), nil
}

func newHotStuff(h *Host, restore []byte) Replica {
	return hotstuff.New(hotstuff.Config{Config: h.replicaConfig(restore), Batch: h.cfg.Cluster.Batch})
}

func newHotStuffClient(c *Cluster, conn transport.Conn, tune replication.Tuning) (Client, error) {
	return hotstuff.NewClient(conn, []byte(clientMaster), c.N, c.F, c.Members, tune), nil
}

func newMinBFT(h *Host, restore []byte) Replica {
	if h.usig == nil {
		// Created at first boot and kept across restarts: it models a
		// trusted counter in an enclave, whose monotonic state outlives
		// crashes of the untrusted replica process around it.
		h.usig = usig.New(uint32(h.cfg.Index), []byte(usigMaster)).WithEnclaveDelay(usigDelay)
	}
	return minbft.New(minbft.Config{Config: h.replicaConfig(restore), USIG: h.usig, Batch: h.cfg.Cluster.Batch})
}

func newMinBFTClient(c *Cluster, conn transport.Conn, tune replication.Tuning) (Client, error) {
	return minbft.NewClient(conn, []byte(clientMaster), c.N, c.F, c.Members, tune), nil
}

func newUnreplicated(h *Host, restore []byte) Replica {
	return unreplicated.New(unreplicated.Config{Config: h.replicaConfig(restore)})
}

func newUnreplicatedClient(c *Cluster, conn transport.Conn, tune replication.Tuning) (Client, error) {
	return unreplicated.NewClient(conn, c.Members[0], []byte(clientMaster), tune), nil
}

package protocol

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neobft/internal/crypto/auth"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/store"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/usig"
)

// HostConfig describes one replica node. Everything here outlives the
// node's incarnations: the registry keeps accumulating and the tracer
// keeps its buffer across crash–restart cycles.
type HostConfig struct {
	Cluster *Cluster
	// Index is the replica's position in Cluster.Members.
	Index int
	// Fabric is joined under the replica's node ID at every boot.
	Fabric  transport.Fabric
	Metrics *metrics.Registry
	// Tracer may be nil (tracing off).
	Tracer *tracing.Tracer
	// App builds the state machine of one incarnation.
	App func() replication.App
	// DataDir arms durable state: the replica keeps a store.Store under
	// DataDir/replica-<Index> journaling executed ops (write-behind) and
	// stable checkpoints (group-commit fsync'd), and boots from what the
	// directory holds. Empty keeps the restart blob in memory.
	DataDir string
	// FsyncLinger is the store's group-commit linger (see store.Options).
	FsyncLinger time.Duration
	// PersistEvery is how often the background persister captures the
	// replica's Persist() blob into its store (default 50ms).
	PersistEvery time.Duration
}

// Host runs one replica node: it owns the node's conn, runtime, optional
// store and checkpoint persister, and replaces all four on every boot.
type Host struct {
	cfg        HostConfig
	auth       *auth.HMACAuth
	clientAuth *auth.ReplicaSide
	usig       *usig.USIG // MinBFT only

	// persistMu orders each persist append after the one before it, the
	// graceful final one included, so a delta never lands behind a full
	// record it was not taken against. It is taken before mu.
	persistMu sync.Mutex

	mu      sync.Mutex
	alive   bool
	conn    transport.Conn // joined conn, wrapped for tracing when traced
	rt      *runtime.Runtime
	app     replication.App
	replica Replica
	st      *store.Store
	// blob is the in-memory restart blob of the last graceful stop (nil
	// in durable mode, where the store holds it).
	blob []byte
	// recovered is the on-disk chain this incarnation booted from,
	// trimmed to the delta records it applied.
	recovered store.Recovered
	// busyBase is the runtime busy time of earlier incarnations.
	busyBase time.Duration
	// persisted identifies the blob the persister last appended, so the
	// WAL only grows when what a restart would boot from has changed.
	persisted   persistKey
	persistStop chan struct{}
	persistDone chan struct{}
}

// persistKey identifies a Persist blob without encoding it. For a saver
// it is the stable checkpoint's slot plus the protocol's prefix (NeoBFT's
// view and epoch table), so a view or epoch change is persisted even when
// the checkpoint is not new. HotStuff and Unreplicated capture fresh state
// on every Persist, so their blobs are keyed by hash.
type persistKey struct {
	slot   uint64
	prefix string
	hash   [32]byte
}

// saver is a Replica whose Persist blob is a small prefix plus its
// immutable stable checkpoint: the seqlog protocols (NeoBFT, PBFT,
// Zyzzyva, MinBFT).
type saver interface{ Save() seqlog.Saved }

// persistState returns what rep would persist now: its key, the slot
// to record it at (the stable checkpoint's for a saver, Executed()
// otherwise), the saver's Saved (nil Stable otherwise) and a function
// that encodes the full blob, nil when there is nothing to persist yet.
// For a saver the encoder may run after every lock is released.
func persistState(rep Replica) (key persistKey, slot uint64, sv seqlog.Saved, encode func() []byte) {
	if s, ok := rep.(saver); ok {
		sv := s.Save()
		if sv.Stable == nil {
			return persistKey{}, 0, sv, nil
		}
		return persistKey{slot: sv.Stable.Slot, prefix: string(sv.Prefix)}, sv.Stable.Slot, sv, sv.Blob
	}
	blob := rep.Persist()
	if blob == nil {
		return persistKey{}, 0, seqlog.Saved{}, nil
	}
	return persistKey{hash: sha256.Sum256(blob)}, rep.Executed(), seqlog.Saved{}, func() []byte { return blob }
}

// persister is one incarnation's persist state: the Saved it last
// appended, the size of the last full record and the delta bytes
// appended since.
type persister struct {
	base   seqlog.Saved
	full   int
	deltas int
}

// write appends sv to st: as a delta from the Saved appended last when
// one can be formed and the deltas since the last full stay smaller
// than it, else as a full record.
func (p *persister) write(st *store.Store, slot uint64, sv seqlog.Saved, encode func() []byte) {
	if sv.Stable != nil && p.base.Stable != nil {
		if delta, ok := sv.Delta(p.base); ok && p.deltas+len(delta) < p.full {
			if st.AppendDelta(p.base.Stable.Slot, slot, delta) == nil {
				p.base, p.deltas = sv, p.deltas+len(delta)
			}
			return
		}
	}
	blob := encode()
	if st.AppendCheckpoint(slot, blob) == nil {
		p.base, p.full, p.deltas = sv, len(blob), 0
	}
}

// NewHost prepares a replica node; Boot starts it.
func NewHost(cfg HostConfig) *Host {
	h := &Host{cfg: cfg, clientAuth: auth.NewReplicaSide([]byte(clientMaster), cfg.Index)}
	if cfg.Cluster.N > 1 { // a fleet of one has no peers to authenticate
		h.auth = auth.NewHMACAuth([]byte(replicaMaster), cfg.Index, cfg.Cluster.N)
	}
	return h
}

// Dir is the replica's store directory ("" in memory mode).
func (h *Host) Dir() string {
	if h.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(h.cfg.DataDir, fmt.Sprintf("replica-%d", h.cfg.Index))
}

// Boot joins the fabric under the replica's node ID and starts an
// incarnation: warm from its persisted checkpoint — read back from the
// data dir in durable mode, from the in-memory blob of the last Stop
// otherwise — or cold (state wiped, recovery from peers). First boot and
// every restart take this path.
func (h *Host) Boot(cold bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.alive {
		return fmt.Errorf("protocol: replica %d already running", h.cfg.Index)
	}
	restore := h.blob
	if cold {
		restore = nil
	}
	var st *store.Store
	if dir := h.Dir(); dir != "" {
		if cold {
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("protocol: wipe replica %d data dir: %w", h.cfg.Index, err)
			}
		}
		var err error
		st, err = store.Open(dir, store.Options{
			FsyncLinger: h.cfg.FsyncLinger,
			Metrics:     h.cfg.Metrics,
			Tracer:      h.cfg.Tracer,
		})
		if err != nil {
			return fmt.Errorf("protocol: open store for replica %d: %w", h.cfg.Index, err)
		}
	}
	conn, err := h.cfg.Fabric.Join(h.cfg.Cluster.Members[h.cfg.Index])
	if err != nil {
		if st != nil {
			st.Close()
		}
		return fmt.Errorf("protocol: join replica %d: %w", h.cfg.Index, err)
	}
	h.conn = tracing.WrapConn(conn, h.cfg.Tracer)
	h.rt = runtime.New(runtime.Config{
		Conn:    h.conn,
		Workers: h.cfg.Cluster.VerifyWorkers,
		Metrics: h.cfg.Metrics,
		Tracer:  h.cfg.Tracer,
	})
	h.app = h.cfg.App()
	if st != nil {
		h.app = store.Durable(h.app, st)
		restore, h.recovered = foldChain(h.app, st.Recovered())
	}
	h.st = st
	h.replica = h.cfg.Cluster.Spec.replica(h, restore)
	h.alive = true
	if st != nil {
		every := h.cfg.PersistEvery
		if every <= 0 {
			every = 50 * time.Millisecond
		}
		h.persisted = persistKey{}
		h.persistStop = make(chan struct{})
		h.persistDone = make(chan struct{})
		go h.persistLoop(every, h.persistStop, h.persistDone)
	}
	return nil
}

// foldChain rebuilds the newest full blob a recovered chain describes by
// applying its delta records to its full checkpoint in order, with
// app's Patch for the state. It stops at the first delta that does not
// apply and reports the chain it folded. The replica's restore path
// checks the result against its certificate as it would any blob.
func foldChain(app replication.App, rec store.Recovered) ([]byte, store.Recovered) {
	blob := rec.Checkpoint
	patch := func(state, delta []byte) ([]byte, error) { return replication.PatchBundle(app, state, delta) }
	for i, d := range rec.Deltas {
		next, err := seqlog.PatchBlob(blob, d.Payload, patch)
		if err != nil {
			rec.Deltas = rec.Deltas[:i]
			break
		}
		blob, rec.Slot, rec.Index = next, d.Slot, d.Index
	}
	return blob, rec
}

// Stop persists the replica's stable checkpoint, stops it and detaches
// it from the network.
func (h *Host) Stop() error { return h.halt(true) }

// Kill stops the replica without the graceful final persist — the
// in-process stand-in for SIGKILL. In durable mode the disk keeps
// whatever the persister last wrote; in memory mode the blob of an
// earlier Stop (possibly stale) is discarded, so a warm boot behaves
// like a cold one.
func (h *Host) Kill() error { return h.halt(false) }

func (h *Host) halt(graceful bool) error {
	h.persistMu.Lock()
	h.mu.Lock()
	if !h.alive {
		h.mu.Unlock()
		h.persistMu.Unlock()
		return fmt.Errorf("protocol: replica %d already down", h.cfg.Index)
	}
	// A nil blob — a kill, or no stable checkpoint yet — makes the next
	// boot effectively cold in memory mode.
	var blob []byte
	var slot uint64
	if graceful {
		var encode func() []byte
		if _, slot, _, encode = persistState(h.replica); encode != nil {
			blob = encode()
		}
	}
	if h.st == nil {
		h.blob = blob
	} else if blob != nil {
		h.st.AppendCheckpoint(slot, blob)
	}
	h.replica.Close()
	if h.st != nil {
		// Process death: the store's file handles go away. The WAL bytes
		// were written (write(2) survives SIGKILL); only the graceful
		// capture above is what a kill loses.
		h.st.Close()
	}
	h.busyBase += h.rt.Busy()
	h.conn.Close()
	h.alive = false
	stop, done := h.persistStop, h.persistDone
	h.persistStop = nil
	h.mu.Unlock()
	h.persistMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return nil
}

// persistLoop periodically captures the replica's Persist() state into
// its store, as a full checkpoint record or a delta from the one it
// appended last, for the lifetime of one incarnation.
func (h *Host) persistLoop(every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	var p persister
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if !h.persist(&p) {
			return
		}
	}
}

// persist appends the replica's state if it changed since the last
// append, and reports false once the incarnation is over. The capture
// reads protocol state under h.mu, the way Stop does; encoding and the
// group-commit append happen outside it, so neither a large snapshot nor
// a slow fsync blocks lifecycle transitions.
func (h *Host) persist(p *persister) bool {
	h.persistMu.Lock()
	defer h.persistMu.Unlock()
	h.mu.Lock()
	if !h.alive {
		h.mu.Unlock()
		return false
	}
	key, slot, sv, encode := persistState(h.replica)
	if encode == nil || key == h.persisted {
		h.mu.Unlock()
		return true
	}
	h.persisted = key
	st := h.st
	h.mu.Unlock()
	// A kill waits on persistMu for this append, like a SIGKILL that
	// lands just after it.
	p.write(st, slot, sv, encode)
	return true
}

// Recovered reports the on-disk checkpoint chain the current
// incarnation booted from, trimmed to the delta records it applied:
// Slot and Index are those of the last record applied. Zero in memory
// mode.
func (h *Host) Recovered() store.Recovered {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recovered
}

// Alive reports whether the replica is running.
func (h *Host) Alive() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.alive
}

// Replica returns the current incarnation's protocol handle
// (*neobft.Replica etc.).
func (h *Host) Replica() Replica {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.replica
}

// Store returns the current incarnation's store (nil in memory mode).
func (h *Host) Store() *store.Store {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st
}

// Executed reports the client operations this incarnation has executed
// (0 while the replica is down).
func (h *Host) Executed() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.alive {
		return 0
	}
	if c, ok := h.replica.(interface{ Committed() uint64 }); ok {
		return c.Committed()
	}
	return h.replica.Executed()
}

// Progress reports the replica's Executed(), the progress catch-up is
// measured with (0 while it is down).
func (h *Host) Progress() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.alive {
		return 0
	}
	return h.replica.Executed()
}

// Busy reports handler busy time (verification + apply) summed across
// incarnations.
func (h *Host) Busy() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.busyBase + h.rt.Busy()
}

// SkewClock multiplies the replica's timer durations by factor.
func (h *Host) SkewClock(factor float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.alive {
		h.rt.SetTimerScale(factor)
	}
}

// AuthOps sums the node's authenticator operations (tags + verifies)
// across incarnations, including client-facing MACs and, for MinBFT, the
// trusted-component calls that are its authenticators.
func (h *Host) AuthOps() uint64 {
	sum := h.clientAuth.Stats().TagOps.Load() + h.clientAuth.Stats().VerifyOps.Load()
	if h.auth != nil {
		sum += h.auth.Stats().TagOps.Load() + h.auth.Stats().VerifyOps.Load()
	}
	h.mu.Lock()
	u := h.usig
	h.mu.Unlock()
	if u != nil {
		sum += u.Ops()
	}
	return sum
}

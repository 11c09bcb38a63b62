package main

import (
	"crypto/sha256"
	"os"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/aom"
	"neobft/internal/batch"
	"neobft/internal/crypto/auth"
	"neobft/internal/crypto/secp256k1"
	"neobft/internal/crypto/siphash"
	"neobft/internal/kvstore"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/seqlog"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/store"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
	"neobft/internal/wire"
	"neobft/internal/ycsb"
)

// Probes time calls into each layer's public functions from one
// goroutine, outside any running system. Each gets probeTime; the traced
// run of every workload repeats all of them, so they stay short.
var probeTime = 150 * time.Millisecond

// sink is a transport.Conn that keeps what it is sent instead of
// delivering it; the probe plays the network.
type sink struct {
	id      transport.NodeID
	handler transport.Handler
	keepFor transport.NodeID // packets sent to this node are kept
	kept    [][]byte
}

func (c *sink) ID() transport.NodeID           { return c.id }
func (c *sink) SetHandler(h transport.Handler) { c.handler = h }
func (c *sink) Close() error                   { return nil }
func (c *sink) Send(to transport.NodeID, pkt []byte) {
	if to == c.keepFor {
		c.kept = append(c.kept, pkt)
	}
}

// timed runs fn for about probeTime and returns ns and heap allocations
// per call.
func timed(fn func()) (ns, allocs float64) {
	fn() // lazy tables, first-use growth
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for chunk := 1; time.Since(start) < probeTime; chunk *= 2 {
		for i := 0; i < chunk; i++ {
			fn()
		}
		n += chunk
	}
	elapsed := time.Since(start)
	stdruntime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

var groupMembers = []transport.NodeID{1, 2, 3, 4}

func groupKeys() []siphash.HalfKey {
	keys := make([]siphash.HalfKey, len(groupMembers))
	for i := range keys {
		keys[i][0] = byte(i + 1)
	}
	return keys
}

// aomRequest is an unstamped aom packet as a client's libAOM sends it.
func aomRequest(payload []byte) []byte {
	w := wire.NewWriter(96 + len(payload))
	wire.EncodeAOM(w, &wire.AOMHeader{Kind: wire.AuthNone, Group: 1, Digest: wire.Digest(payload)}, payload)
	return w.Bytes()
}

func newSwitch(conn *sink, variant wire.AuthKind) *sequencer.Switch {
	sw := sequencer.New(conn, sequencer.Options{Variant: variant, PKSeed: []byte{1}})
	sw.InstallGroup(sequencer.GroupConfig{Group: 1, Epoch: 1, Members: groupMembers, HMACKeys: groupKeys()})
	return sw
}

// runProbes measures every layer and returns the per-layer metrics.
// spans records one benchmark-side span per probe.
func runProbes(seed int64, spans *spanLog, parent uint64) map[string]metric {
	m := map[string]metric{}
	probe := func(name string, fn func()) {
		id := spans.begin("probe."+name, parent, 0)
		fn()
		spans.end(id)
	}
	payload := make([]byte, opSize)

	probe("wire", func() {
		hdr := &wire.AOMHeader{Kind: wire.AuthHMAC, Group: 1, Epoch: 1, Seq: 7, Digest: wire.Digest(payload),
			NumSubgroups: 1, Auth: make([]byte, 16)}
		w := wire.NewWriter(256)
		ns, allocs := timed(func() {
			w.Reset()
			wire.EncodeAOM(w, hdr, payload)
			h, _, err := wire.DecodeAOM(w.Bytes())
			if err != nil {
				panic(err)
			}
			var in [wire.AuthInputSize]byte
			h.AuthInputInto(&in)
		})
		m["wire.aom_codec_ns"] = metric{Value: ns, Unit: "ns"}
		m["wire.aom_codec_allocs"] = metric{Value: allocs, Unit: "count"}
	})

	probe("crypto.hm", func() {
		a := auth.NewHMACAuth([]byte("replica-master"), 0, 4)
		b := auth.NewHMACAuth([]byte("replica-master"), 1, 4)
		ns, _ := timed(func() { a.TagVector(payload) })
		m["crypto.hm_tagvec_ns"] = metric{Value: ns, Unit: "ns"}
		tag := a.Tag(1, payload)
		ns, _ = timed(func() {
			if !b.Verify(0, payload, tag) {
				panic("hm verify failed")
			}
		})
		m["crypto.hm_verify_ns"] = metric{Value: ns, Unit: "ns"}
	})

	probe("crypto.pk", func() {
		priv, err := secp256k1.GenerateKey([]byte("bench"))
		if err != nil {
			panic(err)
		}
		tv := secp256k1.NewTableVerifier(priv.Pub)
		const n = 32
		digests := make([][32]byte, n)
		sigs := make([]secp256k1.Signature, n)
		for i := range digests {
			digests[i] = sha256.Sum256([]byte{byte(i)})
			sigs[i] = priv.Sign(digests[i][:])
		}
		ns, _ := timed(func() { priv.Sign(digests[0][:]) })
		m["crypto.pk_sign_ns"] = metric{Value: ns, Unit: "ns"}
		ns, _ = timed(func() {
			if !tv.Verify(digests[0][:], sigs[0]) {
				panic("pk verify failed")
			}
		})
		m["crypto.pk_verify_ns"] = metric{Value: ns, Unit: "ns"}
		ok := make([]bool, n)
		ns, _ = timed(func() { tv.VerifyBatchInto(ok, digests, sigs) })
		m["crypto.pk_verify_batch32_ns_per_sig"] = metric{Value: ns / n, Unit: "ns"}
	})

	probe("sequencer", func() {
		req := aomRequest(payload)
		for name, variant := range map[string]wire.AuthKind{"sequencer.stamp_hm_ns": wire.AuthHMAC, "sequencer.stamp_pk_ns": wire.AuthPK} {
			conn := &sink{id: 20000}
			newSwitch(conn, variant)
			ns, _ := timed(func() { conn.handler(10000, req) })
			m[name] = metric{Value: ns, Unit: "ns"}
		}
	})

	probe("aom", func() {
		// An in-order stream for receiver 0, stamped by a real switch.
		conn := &sink{id: 20000, keepFor: groupMembers[0]}
		newSwitch(conn, wire.AuthHMAC)
		req := aomRequest(payload)
		for i := 0; i < 50_000; i++ {
			conn.handler(10000, req)
		}
		delivered := 0
		r := aom.NewReceiver(aom.ReceiverConfig{
			Group: 1, Variant: wire.AuthHMAC, SelfIndex: 0, Members: groupMembers,
			Deliver: func(aom.Delivery) { delivered++ },
		}, aom.EpochConfig{Epoch: 1, HMACKey: groupKeys()[0]})
		defer r.Close()
		var m0, m1 stdruntime.MemStats
		stdruntime.ReadMemStats(&m0)
		start := time.Now()
		for _, pkt := range conn.kept {
			pre, _ := r.PreVerify(pkt)
			r.HandlePacketPre(20000, pkt, pre)
		}
		elapsed := time.Since(start)
		stdruntime.ReadMemStats(&m1)
		if delivered != len(conn.kept) {
			panic("aom probe: receiver did not deliver the whole stream")
		}
		m["aom.receive_ns"] = metric{Value: float64(elapsed) / float64(delivered), Unit: "ns", N: delivered}
		m["aom.receive_allocs"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / float64(delivered), Unit: "count"}
	})

	probe("transport.udp", func() {
		fab := udpnet.NewLoopback(udpnet.FabricConfig{Config: udpnet.Config{RcvBuf: 1 << 20, SndBuf: 1 << 20}})
		defer fab.Close()
		rtt, pkts, allocs := fabricProbe(fab, payload)
		m["transport.udp_rtt_us"] = metric{Value: rtt, Unit: "us"}
		m["transport.udp_oneway_pkts_s"] = metric{Value: pkts, Unit: "1/s"}
		m["transport.udp_allocs_per_pkt"] = metric{Value: allocs, Unit: "count"}
	})

	probe("transport.sim", func() {
		fab := simnet.Fabric{Network: simnet.New(simnet.Options{Seed: seed})}
		defer fab.Close()
		rtt, _, _ := fabricProbe(fab, payload)
		m["transport.sim_rtt_us"] = metric{Value: rtt, Unit: "us"}
	})

	probe("runtime", func() {
		for name, workers := range map[string]int{"inline": -1, "pipelined": 0} {
			ns, allocs := runtimeProbe(workers, payload)
			m["runtime."+name+"_ns_per_pkt"] = metric{Value: ns, Unit: "ns"}
			if workers == 0 {
				m["runtime.pipelined_allocs_per_pkt"] = metric{Value: allocs, Unit: "count"}
			}
		}
	})

	probe("batch", func() {
		reqs := make([]*replication.Request, batch.DefaultMaxCount)
		for i := range reqs {
			reqs[i] = &replication.Request{Client: 10000, ReqID: uint64(i + 1), Op: payload, Auth: make([]byte, 32)}
		}
		b := batch.New(batch.Config{})
		now := time.Now()
		ns, _ := timed(func() {
			for _, r := range reqs {
				b.Put(r, tracing.Ref{})
			}
			if _, ok := b.Cut(now); !ok {
				panic("batch probe: no cut")
			}
		})
		m["batch.put_cut_ns_per_req"] = metric{Value: ns / float64(len(reqs)), Unit: "ns"}
		w := wire.NewWriter(4096)
		ns, _ = timed(func() {
			w.Reset()
			batch.MarshalInto(w, reqs)
			if _, ok := batch.Unmarshal(wire.NewReader(w.Bytes())); !ok {
				panic("batch probe: codec")
			}
		})
		m["batch.codec_ns_per_req"] = metric{Value: ns / float64(len(reqs)), Unit: "ns"}
	})

	probe("seqlog", func() {
		var l seqlog.Log[uint64]
		ns, _ := timed(func() {
			for i := uint64(0); i < 128; i++ {
				l.Append(i)
			}
			l.TruncateTo(l.High())
		})
		m["seqlog.append_truncate_ns"] = metric{Value: ns, Unit: "ns"}
	})

	probe("store", func() { storeProbe(m) })

	probe("kvstore", func() {
		wl := ycsbWorkload()
		s := kvstore.NewStore()
		ycsb.Load(s, wl)
		gen := ycsb.NewGenerator(wl, connSeed(seed, 0))
		var reads, updates [][]byte
		for len(reads) < 2048 || len(updates) < 2048 {
			if op := gen.Next(); op[0] == kvstore.OpGet {
				reads = append(reads, op)
			} else {
				updates = append(updates, op)
			}
		}
		i := 0
		ns, _ := timed(func() { s.Execute(reads[i%len(reads)]); i++ })
		m["kvstore.execute_read_ns"] = metric{Value: ns, Unit: "ns"}
		ns, _ = timed(func() { s.Execute(updates[i%len(updates)]); i++ })
		m["kvstore.execute_update_ns"] = metric{Value: ns, Unit: "ns"}
	})
	return m
}

// fabricProbe joins two nodes and measures a 64-byte ping-pong (µs per
// round trip) and a one-way flood with a bounded number of packets in
// flight (packets/s received, heap allocations per packet).
func fabricProbe(fab transport.Fabric, payload []byte) (rttUS, pktsPerS, allocsPerPkt float64) {
	a, err := fab.Join(1)
	if err != nil {
		panic(err)
	}
	b, err := fab.Join(2)
	if err != nil {
		panic(err)
	}
	pong := make(chan struct{}, 1)
	a.SetHandler(func(transport.NodeID, []byte) { pong <- struct{}{} })
	b.SetHandler(func(from transport.NodeID, p []byte) { b.Send(from, p) })
	ns, _ := timed(func() {
		a.Send(2, payload)
		<-pong
	})

	var got atomic.Int64
	b.SetHandler(func(transport.NodeID, []byte) { got.Add(1) })
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	start := time.Now()
	sent := int64(0)
	for time.Since(start) < probeTime {
		if sent-got.Load() < 256 {
			a.Send(2, payload)
			sent++
		} else {
			stdruntime.Gosched()
		}
	}
	elapsed := time.Since(start)
	stdruntime.ReadMemStats(&m1)
	n := float64(got.Load())
	return ns / 1e3, n / elapsed.Seconds(), ratio(float64(m1.Mallocs-m0.Mallocs), n)
}

// macHandler is a protocol stand-in whose verification costs one
// HalfSipHash MAC check and whose apply does nothing.
type macHandler struct {
	a       *auth.HMACAuth
	applied int
}

func (h *macHandler) VerifyPacket(_ transport.NodeID, pkt []byte) runtime.Event {
	if !h.a.Verify(1, pkt[8:], pkt[:8]) {
		return nil
	}
	return pkt
}

func (h *macHandler) ApplyEvent(transport.NodeID, runtime.Event) { h.applied++ }

// runtimeProbe floods one runtime with authenticated packets through a
// sink conn, as bench_test.go's verify flood does, and returns ns and
// allocations per packet retired.
func runtimeProbe(workers int, payload []byte) (ns, allocs float64) {
	conn := &sink{id: 1}
	rt := runtime.New(runtime.Config{Conn: conn, Workers: workers, Queue: 8192})
	h := &macHandler{a: auth.NewHMACAuth([]byte("replica-master"), 0, 4)}
	rt.Start(h)
	defer rt.Close()
	peer := auth.NewHMACAuth([]byte("replica-master"), 1, 4)
	pkt := append(peer.Tag(0, payload), payload...)
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for time.Since(start) < probeTime {
		for i := 0; i < 1024; i++ {
			conn.handler(2, pkt)
		}
		n += 1024
	}
	rt.Flush() // queued work belongs to the timed region
	elapsed := time.Since(start)
	stdruntime.ReadMemStats(&m1)
	if h.applied != n {
		panic("runtime probe: packets lost")
	}
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// storeProbe measures the WAL's acknowledged append path: one writer
// (latency), then nproc concurrent writers under the default linger
// (group-commit throughput and fsyncs per operation).
func storeProbe(m map[string]metric) {
	dir, err := os.MkdirTemp(tmpRoot, "wal-probe-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	reg := metrics.NewRegistry()
	st, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	blob := make([]byte, 1024)
	var slot atomic.Uint64
	appendOne := func() {
		if err := st.AppendCheckpoint(slot.Add(1), blob); err != nil {
			panic(err)
		}
	}
	ns, _ := timed(appendOne)
	m["store.wal_append_sync_us"] = metric{Value: ns / 1e3, Unit: "us"}

	fsyncs := reg.Counter("store_fsync_total")
	f0, s0 := fsyncs.Load(), slot.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < stdruntime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < 2*probeTime {
				appendOne()
			}
		}()
	}
	wg.Wait()
	ops := float64(slot.Load() - s0)
	m["store.wal_group_ops_s"] = metric{Value: ops / time.Since(start).Seconds(), Unit: "1/s"}
	m["store.wal_fsyncs_per_op"] = metric{Value: ratio(float64(fsyncs.Load()-f0), ops), Unit: "ratio"}
}

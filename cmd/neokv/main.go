// Command neokv runs a NeoBFT-replicated B-Tree key-value store over
// real UDP sockets. It demonstrates that the same protocol code that
// drives the simulated-network experiments also runs on the real
// network stack.
//
// By default every node lives in this one process, each bound to its
// own loopback socket:
//
//	neokv                 # interactive: get/put/del/scan commands on stdin
//	neokv -bench 5s       # closed-loop YCSB-A load instead
//
// With -data-dir, each replica journals its executed ops and stable
// checkpoints to a segmented WAL plus snapshots under
// <data-dir>/replica-<idx>, and a restarted process recovers from disk
// instead of relying on peers alone:
//
//	neokv -role replica -id 1 -peers cluster.peers -data-dir /var/lib/neokv
//
// With -role, neokv runs a single node of a multi-process cluster
// described by a shared peers file (see Peers for the format):
//
//	neokv -role sequencer -peers cluster.peers
//	neokv -role replica -id 1 -peers cluster.peers   # ... one per replica
//	neokv -role client -peers cluster.peers
//
// All processes must share the peers file; key material derives
// deterministically from compiled-in master secrets, so no further
// coordination is needed. The multi-process path supports the HMAC
// sequencer variant only.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"neobft/internal/configsvc"
	"neobft/internal/crypto/secp256k1"
	"neobft/internal/kvstore"
	"neobft/internal/metrics"
	"neobft/internal/protocol"
	"neobft/internal/replication"
	"neobft/internal/sequencer"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
	"neobft/internal/wire"
	"neobft/internal/ycsb"
)

type options struct {
	benchDur           time.Duration
	benchRate          float64
	window             int
	verifyWorkers      int
	checkpointInterval int
	metricsAddr        string
	sampleRate         float64
	spanDump           string
	dataDir            string
	fsyncLinger        time.Duration
	persistEvery       time.Duration

	// tracers collects every tracer this process created, for the
	// shutdown span dump (-span-dump) and the /spans endpoint.
	tracers []*tracing.Tracer
}

// tracer creates (and remembers) one tracer per node this process
// hosts, registering its span dump with the exporter. Every neokv node
// gets a tracer: cross-process trace propagation needs each hop to peel
// envelopes, and sampling is decided at the client by -sample-rate.
func (o *options) tracer(node string, reg *metrics.Registry, exporter *metrics.Exporter) *tracing.Tracer {
	tr := tracing.New(tracing.Config{Node: node, Rate: o.sampleRate, Metrics: reg})
	o.tracers = append(o.tracers, tr)
	exporter.AddSpans(fmt.Sprintf("node=%q", node), tr.WriteJSONLines)
	return tr
}

// dumpSpans writes every tracer's spans to -span-dump on shutdown.
func (o *options) dumpSpans() {
	if o.spanDump == "" {
		return
	}
	f, err := os.Create(o.spanDump)
	if err != nil {
		log.Printf("span dump: %v", err)
		return
	}
	defer f.Close()
	for _, tr := range o.tracers {
		if err := tr.WriteJSONLines(f); err != nil {
			log.Printf("span dump: %v", err)
			return
		}
	}
	log.Printf("span dump written to %s", o.spanDump)
}

func main() {
	role := flag.String("role", "all", "all | sequencer | replica | client (non-all roles need -peers)")
	id := flag.Int("id", 0, "node ID for -role replica; must match a replica line in the peers file")
	peersPath := flag.String("peers", "", "peers file describing the multi-process cluster")
	var o options
	flag.DurationVar(&o.benchDur, "bench", 0, "run YCSB-A closed-loop load for this long instead of the REPL (all/client roles)")
	flag.Float64Var(&o.benchRate, "rate", 0,
		"open-loop offered load in ops/s for -bench (0 = closed-loop)")
	flag.IntVar(&o.window, "window", 0,
		"client pipeline window: ops in flight (0 = closed-loop default of 1)")
	flag.IntVar(&o.verifyWorkers, "verify-workers", 0,
		"verification workers per replica (0 = runtime default, negative = inline)")
	flag.IntVar(&o.checkpointInterval, "checkpoint-interval", 0,
		"slots between checkpoints/sync points; bounds replica log memory (0 = protocol default)")
	flag.StringVar(&o.metricsAddr, "metrics", "",
		"serve /metrics (Prometheus text), /trace, /spans and /debug/pprof on this address (empty = disabled)")
	traceDump := flag.String("trace-dump", "",
		"write every node's flight-recorder dump as JSON lines to this file on exit")
	flag.Float64Var(&o.sampleRate, "sample-rate", 0,
		"causal-trace sampling rate for requests this process originates (0 = off, 1 = every request); replicas and sequencers propagate regardless")
	flag.StringVar(&o.spanDump, "span-dump", "",
		"write every node's causal-span dump as JSON lines to this file on exit (merge with neotrace)")
	flag.StringVar(&o.dataDir, "data-dir", "",
		"durable replica state root: each replica keeps a segmented WAL and snapshots under <data-dir>/replica-<idx> and recovers from them on restart (empty = in-memory)")
	flag.DurationVar(&o.fsyncLinger, "fsync-linger", time.Millisecond,
		"group-commit window: checkpoint appends wait up to this long to share one fsync (with -data-dir)")
	flag.DurationVar(&o.persistEvery, "persist-every", 50*time.Millisecond,
		"how often each replica's stable checkpoint is captured to its WAL (with -data-dir)")
	flag.Parse()

	exporter := &metrics.Exporter{}
	if *traceDump != "" {
		defer func() {
			f, err := os.Create(*traceDump)
			if err != nil {
				log.Printf("trace dump: %v", err)
				return
			}
			defer f.Close()
			if err := exporter.WriteTraces(f, ""); err != nil {
				log.Printf("trace dump: %v", err)
				return
			}
			log.Printf("flight-recorder dump written to %s", *traceDump)
		}()
	}

	if *role == "all" {
		runAll(o, exporter)
		return
	}
	if *peersPath == "" {
		log.Fatalf("-role %s needs -peers", *role)
	}
	peers, err := LoadPeers(*peersPath)
	if err != nil {
		log.Fatal(err)
	}
	book, err := udpnet.NewAddressBook(peers.Addrs)
	if err != nil {
		log.Fatal(err)
	}
	switch *role {
	case "sequencer":
		runSequencer(o, exporter, peers, book)
	case "replica":
		runReplica(o, exporter, peers, book, transport.NodeID(*id))
	case "client":
		runClient(o, exporter, peers, book)
	default:
		log.Fatalf("unknown -role %q (want all, sequencer, replica, or client)", *role)
	}
}

// connConfig is the socket tuning every neokv node uses.
func connConfig(reg *metrics.Registry) udpnet.Config {
	return udpnet.Config{RcvBuf: 1 << 20, SndBuf: 1 << 20, Metrics: reg}
}

// remoteSvc builds the configuration-service replica a non-sequencer
// process runs: the sequencer switch is known only by identity, and all
// key material derives from the shared master secret.
func remoteSvc(peers *Peers) *configsvc.Service {
	svc := configsvc.New(wire.AuthHMAC, []byte(protocol.AOMMaster))
	svc.RegisterRemoteSwitch(peers.Seq, secp256k1.PublicKey{})
	if _, err := svc.CreateGroup(protocol.Group, peers.Members); err != nil {
		log.Fatal(err)
	}
	return svc
}

// cluster describes the Neo-HM system this process hosts nodes of, as the
// shared spec table assembles it (the master secrets every process of a
// cluster derives its keys from are compiled into internal/protocol; a
// deployment beyond localhost demos would distribute real ones out of
// band).
func (o *options) cluster(members []transport.NodeID, svc *configsvc.Service) *protocol.Cluster {
	spec, err := protocol.Lookup("Neo-HM")
	if err != nil {
		log.Fatal(err)
	}
	cl := spec.Cluster(len(members), protocol.Params{
		CheckpointInterval: o.checkpointInterval,
		VerifyWorkers:      o.verifyWorkers,
	})
	cl.Members, cl.Svc = members, svc
	return cl
}

// bootReplica boots replica idx on fab through the shared replica host,
// which with -data-dir recovers whatever a previous incarnation left on
// disk and keeps the stable checkpoint persisted; the outcome is logged.
// Stop the returned host on shutdown for the graceful final persist.
func (o *options) bootReplica(cl *protocol.Cluster, idx int, fab transport.Fabric,
	kv *kvstore.Store, reg *metrics.Registry, tr *tracing.Tracer) *protocol.Host {
	h := protocol.NewHost(protocol.HostConfig{
		Cluster:      cl,
		Index:        idx,
		Fabric:       fab,
		Metrics:      reg,
		Tracer:       tr,
		App:          func() replication.App { return kv },
		DataDir:      o.dataDir,
		FsyncLinger:  o.fsyncLinger,
		PersistEvery: o.persistEvery,
	})
	if err := h.Boot(false); err != nil {
		log.Fatal(err)
	}
	if st := h.Store(); st != nil {
		if rec := h.Recovered(); rec.Checkpoint != nil {
			log.Printf("replica %d recovered from %s: checkpoint slot %d (full record + %d delta records applied), %d WAL records, torn-tail=%v",
				idx, h.Dir(), rec.Slot, len(rec.Deltas), rec.Records, rec.Torn)
		} else {
			log.Printf("replica %d starting fresh in %s", idx, h.Dir())
		}
	}
	return h
}

func serveMetrics(o options, exporter *metrics.Exporter) func() {
	if o.metricsAddr == "" {
		return func() {}
	}
	srv, bound, err := metrics.Serve(o.metricsAddr, exporter)
	if err != nil {
		log.Fatalf("metrics: %v", err)
	}
	log.Printf("metrics on http://%s/metrics (traces at /trace, pprof at /debug/pprof/)", bound)
	return func() { srv.Close() }
}

func awaitSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	s := <-ch
	log.Printf("caught %v, shutting down", s)
}

// runAll hosts the whole cluster in this process. Every node joins a
// loopback fabric that binds kernel-assigned ports and publishes the
// bound addresses, so there is no pick-then-rebind window where another
// process could claim a port.
func runAll(o options, exporter *metrics.Exporter) {
	const nReplicas = 4
	seqID := transport.NodeID(100)
	clientID := transport.NodeID(200)
	memberIDs := make([]transport.NodeID, nReplicas)
	for i := range memberIDs {
		memberIDs[i] = transport.NodeID(i + 1)
	}

	seqReg := metrics.NewRegistry()
	// Process-wide heap gauges live on exactly one registry so merged
	// snapshots don't multiply the readings.
	metrics.RegisterHeapGauges(seqReg)
	exporter.Add(`node="sequencer"`, seqReg)
	replicaRegs := make([]*metrics.Registry, nReplicas)
	for i := range replicaRegs {
		replicaRegs[i] = metrics.NewRegistry()
		exporter.Add(fmt.Sprintf(`replica="%d"`, i), replicaRegs[i])
	}
	fab := udpnet.NewLoopback(udpnet.FabricConfig{
		Config: connConfig(nil),
		MetricsFor: func(id transport.NodeID) *metrics.Registry {
			if id == seqID {
				return seqReg
			}
			if i := int(id) - 1; i >= 0 && i < nReplicas {
				return replicaRegs[i]
			}
			return nil
		},
	})
	defer fab.Close()
	join := func(id transport.NodeID) transport.Conn {
		conn, err := fab.Join(id)
		if err != nil {
			log.Fatal(err)
		}
		return conn
	}

	// Sequencer switch.
	svc := configsvc.New(wire.AuthHMAC, []byte(protocol.AOMMaster))
	seqConn := join(seqID)
	seqTr := o.tracer("sequencer", seqReg, exporter)
	sw := sequencer.New(tracing.WrapConn(seqConn, seqTr),
		sequencer.Options{Variant: wire.AuthHMAC, Metrics: seqReg, Tracer: seqTr})
	svc.RegisterSwitch(configsvc.SwitchHandle{ID: seqID, SW: sw})
	if _, err := svc.CreateGroup(protocol.Group, memberIDs); err != nil {
		log.Fatal(err)
	}

	// Replicas.
	cluster := o.cluster(memberIDs, svc)
	stores := make([]*kvstore.Store, nReplicas)
	for i := 0; i < nReplicas; i++ {
		stores[i] = kvstore.NewStore()
		rtr := o.tracer(fmt.Sprintf("replica-%d", i), replicaRegs[i], exporter)
		h := o.bootReplica(cluster, i, fab, stores[i], replicaRegs[i], rtr)
		defer h.Stop()
	}

	// Client.
	clTr := o.tracer("client", nil, exporter)
	cl, err := cluster.NewClient(tracing.WrapConn(join(clientID), clTr), replication.Tuning{Window: o.window})
	if err != nil {
		log.Fatal(err)
	}
	defer o.dumpSpans()
	seqAddr := "?"
	if uc, ok := seqConn.(*udpnet.Conn); ok {
		seqAddr = uc.LocalAddr().String()
	}
	log.Printf("NeoBFT KV cluster up over UDP: sequencer %s, %d replicas", seqAddr, nReplicas)

	defer serveMetrics(o, exporter)()

	tcl := tracing.WrapInvoker(cl, clTr)
	if o.benchDur > 0 {
		runBench(tcl, cl, stores[0], o.benchDur, o.benchRate)
		return
	}
	repl(tcl)
}

func runSequencer(o options, exporter *metrics.Exporter, peers *Peers, book *udpnet.AddressBook) {
	reg := metrics.NewRegistry()
	metrics.RegisterHeapGauges(reg)
	exporter.Add(`node="sequencer"`, reg)
	conn, err := udpnet.ListenConfig(peers.Seq, book, connConfig(reg))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	svc := configsvc.New(wire.AuthHMAC, []byte(protocol.AOMMaster))
	tr := o.tracer("sequencer", reg, exporter)
	sw := sequencer.New(tracing.WrapConn(conn, tr),
		sequencer.Options{Variant: wire.AuthHMAC, Metrics: reg, Tracer: tr})
	svc.RegisterSwitch(configsvc.SwitchHandle{ID: peers.Seq, SW: sw})
	if _, err := svc.CreateGroup(protocol.Group, peers.Members); err != nil {
		log.Fatal(err)
	}
	defer o.dumpSpans()
	defer serveMetrics(o, exporter)()
	log.Printf("sequencer %d up on %s (group %d, %d members)",
		peers.Seq, conn.LocalAddr(), protocol.Group, len(peers.Members))
	awaitSignal()
}

func runReplica(o options, exporter *metrics.Exporter, peers *Peers, book *udpnet.AddressBook, id transport.NodeID) {
	idx := peers.MemberIndex(id)
	if idx < 0 {
		log.Fatalf("-id %d is not a replica in the peers file (members %v)", id, peers.Members)
	}
	reg := metrics.NewRegistry()
	metrics.RegisterHeapGauges(reg)
	exporter.Add(fmt.Sprintf(`replica="%d"`, idx), reg)
	fab := udpnet.NewFabric(book, udpnet.FabricConfig{Config: connConfig(reg)})
	tr := o.tracer(fmt.Sprintf("replica-%d", idx), reg, exporter)
	h := o.bootReplica(o.cluster(peers.Members, remoteSvc(peers)), idx, fab, kvstore.NewStore(), reg, tr)
	defer h.Stop()
	defer o.dumpSpans()
	defer serveMetrics(o, exporter)()
	log.Printf("replica %d (index %d of %d, f=%d) up on %s",
		id, idx, len(peers.Members), peers.F(), book.Lookup(id))
	awaitSignal()
}

func runClient(o options, exporter *metrics.Exporter, peers *Peers, book *udpnet.AddressBook) {
	if len(peers.Clients) == 0 {
		log.Fatal("peers file has no client line")
	}
	id := peers.Clients[0]
	reg := metrics.NewRegistry()
	metrics.RegisterHeapGauges(reg)
	exporter.Add(`node="client"`, reg)
	conn, err := udpnet.ListenConfig(id, book, connConfig(reg))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	tr := o.tracer("client", reg, exporter)
	cl, err := o.cluster(peers.Members, remoteSvc(peers)).
		NewClient(tracing.WrapConn(conn, tr), replication.Tuning{Window: o.window})
	if err != nil {
		log.Fatal(err)
	}
	defer o.dumpSpans()
	defer serveMetrics(o, exporter)()
	log.Printf("client %d up on %s against %d replicas", id, conn.LocalAddr(), len(peers.Members))
	tcl := tracing.WrapInvoker(cl, tr)
	if o.benchDur > 0 {
		runBench(tcl, cl, nil, o.benchDur, o.benchRate)
		return
	}
	repl(tcl)
}

// starter is the pipelined client shape runBench needs for open-loop
// mode; every protocol.Client implements it.
type starter interface {
	Start(op []byte, deadline time.Duration) replication.Call
}

func runBench(cl tracing.Invoker, st starter, store *kvstore.Store, d time.Duration, rate float64) {
	if rate > 0 {
		runOpenBench(st, store, d, rate)
		return
	}
	wl := ycsb.WorkloadA()
	wl.RecordCount = 10_000
	log.Printf("running YCSB-A for %v...", d)
	gen := ycsb.NewGenerator(wl, 1)
	deadline := time.Now().Add(d)
	ops := 0
	var latSum time.Duration
	for time.Now().Before(deadline) {
		op := gen.Next()
		start := time.Now()
		if _, err := cl.Invoke(op, 10*time.Second); err != nil {
			log.Printf("op failed: %v", err)
			continue
		}
		latSum += time.Since(start)
		ops++
	}
	extra := ""
	if store != nil {
		extra = fmt.Sprintf("; store holds %d keys", store.Len())
	}
	log.Printf("YCSB-A: %d ops in %v (%.0f ops/s, mean latency %v)%s",
		ops, d, float64(ops)/d.Seconds(), latSum/time.Duration(max(ops, 1)), extra)
}

// runOpenBench offers YCSB-A load open-loop: Poisson arrivals at rate
// ops/s submitted through the client's pipeline window, with latency
// measured from each operation's scheduled arrival time.
func runOpenBench(st starter, store *kvstore.Store, d time.Duration, rate float64) {
	wl := ycsb.WorkloadA()
	wl.RecordCount = 10_000
	gen := ycsb.NewGenerator(wl, 1)
	rng := rand.New(rand.NewSource(1))
	log.Printf("running open-loop YCSB-A at %.0f ops/s for %v...", rate, d)
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		ops    int
		errs   int
		latSum time.Duration
	)
	mean := float64(time.Second) / rate
	next := time.Now()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		next = next.Add(time.Duration(rng.ExpFloat64() * mean))
		if w := time.Until(next); w > 0 {
			time.Sleep(w)
		}
		op := gen.Next()
		sched := next
		call := st.Start(op, 10*time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := call.Wait()
			lat := time.Since(sched)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			ops++
			latSum += lat
		}()
	}
	wg.Wait()
	extra := ""
	if store != nil {
		extra = fmt.Sprintf("; store holds %d keys", store.Len())
	}
	log.Printf("open-loop YCSB-A: %d ops in %v (%.0f ops/s achieved of %.0f offered, mean latency %v, %d errors)%s",
		ops, d, float64(ops)/d.Seconds(), rate, latSum/time.Duration(max(ops, 1)), errs, extra)
}

func repl(cl tracing.Invoker) {
	fmt.Println("commands: get <k> | put <k> <v> | del <k> | scan <from> <to> | quit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var op []byte
		switch fields[0] {
		case "quit", "exit":
			return
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <k>")
				continue
			}
			op = kvstore.EncodeGet(fields[1])
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <k> <v>")
				continue
			}
			op = kvstore.EncodePut(fields[1], []byte(fields[2]))
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <k>")
				continue
			}
			op = kvstore.EncodeDelete(fields[1])
		case "scan":
			if len(fields) != 3 {
				fmt.Println("usage: scan <from> <to>")
				continue
			}
			op = kvstore.EncodeScan(fields[1], fields[2], 100)
		default:
			fmt.Println("unknown command")
			continue
		}
		start := time.Now()
		res, err := cl.Invoke(op, 10*time.Second)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(fields[0], res, time.Since(start))
	}
}

func printResult(cmd string, res []byte, lat time.Duration) {
	switch cmd {
	case "get":
		if v, found := kvstore.DecodeGetResult(res); found {
			fmt.Printf("%q (%v)\n", v, lat)
		} else {
			fmt.Printf("(not found) (%v)\n", lat)
		}
	case "scan":
		r := wire.NewReader(res)
		n := r.U32()
		fmt.Printf("%d entries (%v)\n", n, lat)
		for i := uint32(0); i < n; i++ {
			k := r.VarBytes()
			v := r.VarBytes()
			fmt.Printf("  %s = %q\n", k, v)
		}
	default:
		fmt.Printf("ok (%v)\n", lat)
	}
}

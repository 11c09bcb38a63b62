package main

import (
	"sort"
)

// inRun computes the per-layer metrics that come from the program's own
// counters over the measured window of an untraced pass: RunResult-style
// per-op counts, deltas of the merged node registries, the failover
// stages and the load generator's own figures. A layer a workload does
// not touch reports 0.
func (r *passResult) inRun() map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	in, _, to := r.measured()
	var ok, failed float64
	for _, s := range in {
		if s.ok {
			ok++
		} else {
			failed++
		}
	}
	window := float64(r.c1.at - r.c0.at) // the counters' readings bracket [from, to)
	delta := func(name string) float64 { return r.c1.counter(name) - r.c0.counter(name) }
	perOp := func(v float64) float64 { return ratio(v, ok) }
	perKop := func(v float64) float64 { return ratio(1000*v, ok) }

	// Table 1 of the paper: the busiest replica's share per committed op.
	committed := float64(r.c1.committed - r.c0.committed)
	var msgs, pkts, busy float64
	for i := range r.c1.msgs {
		msgs = max(msgs, float64(r.c1.msgs[i]-r.c0.msgs[i]))
		pkts = max(pkts, float64(r.c1.pkts[i]-r.c0.pkts[i]))
		busy = max(busy, float64(r.c1.busy[i]-r.c0.busy[i]))
	}
	put("proto.msgs_per_op", ratio(msgs, committed), "count")
	put("proto.pkts_per_op", ratio(pkts, committed), "count")
	put("proto.auth_per_op", ratio(float64(r.c1.auth-r.c0.auth), committed), "count")

	txPkts := delta("udp_tx_packets_total")
	txDrops := delta("udp_tx_drop_unknown_total") + delta("udp_tx_drop_oversize_total") +
		delta("udp_tx_drop_overflow_total") + delta("udp_tx_drop_sockerr_total")
	rxDrops := delta("udp_rx_drop_overflow_total") + delta("udp_rx_drop_short_total")
	put("transport.udp_bytes_per_op", perOp(delta("udp_tx_bytes_total")), "B")
	put("transport.udp_tx_drop_ratio", ratio(txDrops, txPkts+txDrops), "ratio")
	put("transport.udp_rx_drop_ratio", ratio(rxDrops, delta("udp_rx_packets_total")+rxDrops), "ratio")

	put("runtime.busy_share_max", busy/window, "ratio")
	put("runtime.verify_ns_p50", histBetween(r.c0, r.c1, "runtime_verify_ns").Quantile(0.5), "ns")
	put("runtime.apply_ns_p50", histBetween(r.c0, r.c1, "runtime_apply_ns").Quantile(0.5), "ns")
	put("runtime.retire_lag_ns_p99", histBetween(r.c0, r.c1, "runtime_retire_lag_ns").Quantile(0.99), "ns")
	put("runtime.queue_depth_max", r.queueMax, "count")

	cuts := delta("proto_batch_cut_count_total") + delta("proto_batch_cut_bytes_total") +
		delta("proto_batch_cut_linger_total") + delta("proto_batch_cut_flush_total")
	put("batch.size_mean", histBetween(r.c0, r.c1, "proto_batch_size").Mean(), "count")
	put("batch.cut_linger_share", ratio(delta("proto_batch_cut_linger_total"), cuts), "ratio")

	put("sequencer.signed_ratio", ratio(delta("seq_signed_total"), delta("seq_stamped_total")), "ratio")
	put("sequencer.stamped_per_op", perOp(delta("seq_stamped_total")), "count")

	put("aom.gap_per_kop", perKop(delta("aom_gap_total")), "count")
	put("aom.dropped_per_kop", perKop(delta("aom_dropped_total")), "count")
	put("proto.slow_path_per_kop", perKop(delta("proto_slow_path_total")), "count")
	put("proto.gap_agreements", delta("proto_gap_agreements_total"), "count")

	put("client.retransmit_ratio", ratio(delta("client_retransmits_total"), float64(len(in))), "ratio")
	put("client.timeouts", delta("client_timeouts_total"), "count")

	put("store.fsync_ns_p50", histBetween(r.c0, r.c1, "store_fsync_ns").Quantile(0.5), "ns")
	put("store.fsync_batch_mean", histBetween(r.c0, r.c1, "store_fsync_batch").Mean(), "count")
	put("store.wal_bytes_per_op", perOp(delta("store_wal_bytes")), "B")
	put("proto.checkpoints", delta("proto_checkpoints_total"), "count")

	// Failover, timed from outside. The outage is the longest gap between
	// consecutive completions that ends after the crash (requests already
	// stamped still complete for a moment after it); its stages are crash →
	// first view change → first epoch change → first completion.
	var detect, epoch, resume, outage float64
	if crash := r.crashAt.Load(); crash != 0 {
		var ends []int64
		for _, s := range r.samples {
			if s.ok {
				ends = append(ends, s.end)
			}
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		var resumed int64
		for i := 1; i < len(ends); i++ {
			if gap := ends[i] - ends[i-1]; ends[i] >= crash && float64(gap)/1e6 > outage {
				outage, resumed = float64(gap)/1e6, ends[i]
			}
		}
		if r.viewAt != 0 && r.epochAt != 0 && resumed != 0 {
			detect = float64(r.viewAt-crash) / 1e6
			epoch = float64(r.epochAt-r.viewAt) / 1e6
			resume = float64(resumed-r.epochAt) / 1e6
		}
	}
	put("failover.detect_ms", detect, "ms")
	put("failover.epoch_ms", epoch, "ms")
	put("failover.resume_ms", resume, "ms")
	put("failover.outage_ms", outage, "ms")
	put("failover.view_changes", delta("proto_view_changes_total"), "count")

	// The load generator itself, before any fault: how late the open loop
	// got to each arrival (its goroutine also waits there for a free window
	// slot, so queueing behind earlier arrivals counts), the pooled p99 —
	// too unsteady on this box for the end-to-end table — and what was
	// attempted but not served.
	steadyTo := to
	if crash := r.crashAt.Load(); crash != 0 {
		steadyTo = crash
	}
	var late []float64
	for _, s := range in {
		if s.at < steadyTo {
			late = append(late, float64(s.fired-s.at)/1e3)
		}
	}
	sort.Float64s(late)
	put("loadgen.late_us_p99", percentile(late, 99), "us")
	put("loadgen.p99_us", percentile(latenciesUS(in, func(s sample) bool { return s.at < steadyTo }), 99), "us")
	put("loadgen.fail_ratio", ratio(failed, float64(len(in))), "ratio")
	put("go.allocs_per_op", perOp(float64(r.c1.mem.Mallocs-r.c0.mem.Mallocs)), "count")
	put("go.gc_pause_ms", float64(r.c1.mem.PauseTotalNs-r.c0.mem.PauseTotalNs)/1e6, "ms")
	return m
}

// reconcile adds the predictions README.md writes down before the first
// run: per-packet cost × packets per op, plus the secp256k1 term, against
// the measured CPU per op. On one shared box every node's work lands in
// the same process, so the prediction sums over all nodes: each of n
// replicas handles pkts_per_op packets, each costing one loopback
// traversal and one trip through the runtime.
func reconcile(m map[string]metric, e2e map[string]metric, w workload, replicas int) {
	v := func(name string) float64 { return m[name].Value }
	perPktUS := v("runtime.pipelined_ns_per_pkt") / 1e3
	if w.udp {
		perPktUS += ratio(1e6, v("transport.udp_oneway_pkts_s"))
	}
	secpUS := v("sequencer.stamped_per_op") * v("sequencer.signed_ratio") *
		(v("crypto.pk_sign_ns") + float64(replicas)*v("crypto.pk_verify_ns")) / 1e3
	pred := float64(replicas)*v("proto.pkts_per_op")*perPktUS + secpUS
	m["model.secp256k1_us_per_op"] = metric{Value: secpUS, Unit: "us"}
	m["model.cpu_us_per_op_pred"] = metric{Value: pred, Unit: "us"}
	m["model.cpu_pred_over_measured"] = metric{Value: ratio(pred, e2e["cpu_us_per_op"].Value), Unit: "ratio"}
}

package main

import (
	"fmt"

	tpmetrics "transproc/internal/metrics"
)

// perLayer sets every per-layer metric from the traced phase ph; base
// is the untraced phase over the same inputs, against which the
// tracing overhead is measured. A layer that a workload does not
// exercise, or reaches without a seam, reads 0 (README.md lists which).
func perLayer(rep *report, o options, ph, base *phase) error {
	spans := ph.tr.snapshot()
	path, err := writeSpans(o.workload, o.seed, spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s (%d spans)\n", path, len(spans))

	procs := float64(ph.settled())
	units := float64(len(ph.units))
	perProc := func(n int64) float64 { return ratio(float64(n), procs) }
	perUnit := func(n int64) float64 { return ratio(float64(n), units) }
	reg := ph.reg
	c := reg.Counter

	var runMS, selfs, fedRunMS []float64
	for _, u := range ph.units {
		if u.root == 0 {
			continue
		}
		root := spans[u.root-1]
		d := float64(root.end-root.start) / 1e6
		switch root.kind {
		case spanRuntimeRun:
			runMS = append(runMS, d)
			selfs = append(selfs, selfMS(spans, u.root))
		case spanClusterRun:
			fedRunMS = append(fedRunMS, d)
		}
	}

	// runtime
	dispatched := c(tpmetrics.InvokeDispatched)
	policyBlocked := c(tpmetrics.InvokePolicyBlocked)
	lockBlocked := c(tpmetrics.InvokeLockBlocked)
	rep.set("runtime.run_ms", "ms", median(runMS))
	rep.set("runtime.self_ms", "ms", median(selfs))
	rep.set("runtime.dispatched_per_proc", "count", perProc(dispatched))
	rep.set("runtime.policy_blocked_per_proc", "count", perProc(policyBlocked))
	rep.set("runtime.lock_blocked_per_proc", "count", perProc(lockBlocked))
	rep.set("runtime.useful_dispatch_ratio", "ratio", ratio(float64(dispatched), float64(dispatched+policyBlocked+lockBlocked)))
	rep.set("runtime.restarts", "count", perUnit(c(tpmetrics.ProcsRestarted)))
	rep.set("runtime.victim_aborts", "count", perUnit(c(tpmetrics.VictimAborts)))
	aborted, committed := c(tpmetrics.ProcsAborted), c(tpmetrics.ProcsCommitted)
	rep.set("runtime.abort_share", "ratio", ratio(float64(aborted), float64(aborted+committed)))

	// policy (CPU profile only: the layer has no seam)
	attr := ph.cpuAttr
	total := float64(attr.total)
	rep.set("policy.cpu_share", "ratio", ratio(float64(attr.policy), total))
	rep.set("policy.cpu_ms_per_proc", "ms", ratio(float64(attr.policy)/1e6, procs))
	rep.set("policy.maydispatch_cpu_share", "ratio", ratio(float64(attr.mayDispatch), total))

	// wal: whichever log seam the workload has (engine log, node logs
	// or the server log).
	appends := mergeStats(statsOf(spans, spanWALAppend), statsOf(spans, spanNodeWALAppend), statsOf(spans, spanServeWALAppend))
	syncs := mergeStats(statsOf(spans, spanWALSync), statsOf(spans, spanNodeWALSync), statsOf(spans, spanServeWALSync))
	rep.set("wal.appends_per_proc", "count", ratio(float64(appends.count), procs))
	rep.set("wal.bytes_per_proc", "B", perProc(c(tpmetrics.WALBytes)))
	rep.set("wal.fsyncs_per_proc", "count", perProc(c(tpmetrics.WALFsyncs)))
	rep.set("wal.group_batch_mean", "count", reg.Hist(tpmetrics.HistWALBatch).Mean)
	rep.set("wal.append_busy_ms", "ms", ratio(appends.busyMS+syncs.busyMS, units))
	rep.set("wal.append_p50_us", "us", quantile(appends.durUS, 0.50))
	rep.set("wal.append_p99_us", "us", quantile(appends.durUS, 0.99))

	// subsystem
	inv := statsOf(spans, spanInvoke)
	rep.set("subsystem.invokes_per_proc", "count", perProc(c(tpmetrics.SubInvocations)))
	rep.set("subsystem.invoke_busy_ms", "ms", ratio(inv.busyMS, units))
	rep.set("subsystem.invoke_p99_us", "us", quantile(inv.durUS, 0.99))
	rep.set("subsystem.lock_denials_per_proc", "count", perProc(c(tpmetrics.SubLockDenials)))
	rep.set("subsystem.aborts", "count", perUnit(c(tpmetrics.SubAborts)))

	// twopc
	rep.set("twopc.commits_per_proc", "count", perProc(c(tpmetrics.DeferredCommitted2PC)))
	rep.set("twopc.prepared_set_mean", "count", reg.Hist(tpmetrics.HistPreparedSet).Mean)
	rep.set("twopc.blocked_commit_ticks_mean", "ticks", reg.Hist(tpmetrics.HistProcBlocked).Mean)

	// federation
	node := statsOf(spans, spanNodeWALAppend)
	nodeSync := statsOf(spans, spanNodeWALSync)
	hub := statsOf(spans, spanHubJournal)
	rep.set("federation.run_ms", "ms", median(fedRunMS))
	rep.set("federation.rpcs_per_proc", "count", perProc(c(tpmetrics.FedRPCs)))
	rep.set("federation.rpc_retries", "count", perUnit(c(tpmetrics.FedRPCRetries)))
	rep.set("federation.dedup_replays", "count", perUnit(c(tpmetrics.FedDedupReplays)))
	rep.set("federation.victims", "count", perUnit(c(tpmetrics.FedVictims)))
	rep.set("federation.node_wal_appends_per_proc", "count", ratio(float64(node.count), procs))
	rep.set("federation.node_wal_busy_ms", "ms", ratio(node.busyMS+nodeSync.busyMS, units))
	rep.set("federation.hub_journal_appends_per_proc", "count", ratio(float64(hub.count), procs))
	rep.set("federation.hub_journal_busy_ms", "ms", ratio(hub.busyMS, units))
	rep.set("federation.cpu_share", "ratio", ratio(float64(attr.federation), total))
	rep.set("federation.net_cpu_share", "ratio", ratio(float64(attr.federationNet), total))

	// serve
	handler := statsOf(spans, spanServeHandler)
	serveWAL := statsOf(spans, spanServeWALAppend)
	serveSync := statsOf(spans, spanServeWALSync)
	rep.set("serve.handler_p50_us", "us", quantile(handler.durUS, 0.50))
	rep.set("serve.handler_p99_us", "us", quantile(handler.durUS, 0.99))
	rep.set("serve.batches", "count", perUnit(c(tpmetrics.ServeBatches)))
	rep.set("serve.batch_size_mean", "count", reg.Hist(tpmetrics.HistServeBatch).Mean)
	rep.set("serve.queue_depth_p99", "count", histQuantile(reg.Hist(tpmetrics.HistServeQueueDepth), 0.99))
	rep.set("serve.shed", "count", float64(ph.shed))
	rep.set("serve.wal_append_busy_ms", "ms", ratio(serveWAL.busyMS+serveSync.busyMS, units))
	rep.set("serve.gen_late_max_ms", "ms", ph.genLateMaxMS)

	// go runtime
	rep.set("go.gc_cpu_share", "ratio", ph.goCPU.gcShare())
	rep.set("go.alloc_mb", "MB", ratio(ph.goCPU.allocBytes/1e6, units))

	// tracing itself: CPU per settled process, traced against untraced.
	rep.set("trace.cpu_overhead_pct", "%", 100*(ratio(ph.cpuPerProc(), base.cpuPerProc())-1))
	rep.set("trace.spans_per_proc", "count", ratio(float64(len(spans)), procs))
	return nil
}

func mergeStats(all ...spanStats) spanStats {
	var m spanStats
	for _, s := range all {
		m.count += s.count
		m.busyMS += s.busyMS
		m.durUS = append(m.durUS, s.durUS...)
	}
	m.durUS = sortedCopy(m.durUS)
	return m
}

// histQuantile is the upper bound of the power-of-two bucket holding
// the q-quantile of a registry histogram.
func histQuantile(h tpmetrics.HistogramData, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	want := int64(q * float64(h.Count))
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen > want {
			return float64(b.Le)
		}
	}
	return float64(h.Max)
}

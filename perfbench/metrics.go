package main

// layerMetric declares one per-layer metric of the traced run. The list
// must match BENCHMARK.json's per_layer entries (the self-test checks it);
// README.md maps each to the end-to-end metric and workload it should
// move.
type layerMetric struct {
	name, unit, better string
}

// exptFamilies are the experiment-id families of the -quick suite (the part
// of a record's experiment name before the first '/'); records of any
// other family are summed into expt.trial_s.other.
var exptFamilies = []string{
	"F2", "E1", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12",
	"E13", "E14", "E15", "E16", "E17", "E18", "A1", "A2", "A3",
	"E-churn", "E-churn-detect", "E-junta", "E-repmaj", "E-bkr",
}

var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"pop.run.ns_per_interaction", "ns", "lower"},
		{"pop.construct.s", "s", "lower"},

		{"pop.batch.batches", "count", "lower"},
		{"pop.batch.mean_len", "count", "higher"},
		{"pop.batch.cache_hit_ratio", "ratio", "higher"},
		{"pop.batch.rule_calls", "count", "lower"},
		{"pop.batch.seq_share", "ratio", "lower"},
		{"pop.batch.fallbacks", "count", "lower"},
		{"pop.batch.compactions", "count", "lower"},

		{"pop.dense.batches", "count", "lower"},
		{"pop.dense.mean_len", "count", "higher"},
		{"pop.dense.pair_cells_per_batch", "count", "lower"},
		{"pop.dense.cache_hit_ratio", "ratio", "higher"},
		{"pop.dense.table_share", "ratio", "higher"},
		{"pop.dense.compactions", "count", "lower"},
		{"pop.dense.delegated_share", "ratio", "lower"},
		{"pop.dense.delegations", "count", "lower"},

		{"core.rule.calls", "count", "lower"},
		{"core.rule.ns_per_call", "ns", "lower"},
		{"core.converged.calls", "count", "lower"},
		{"core.converged.s", "s", "lower"},
		{"core.estimates.s", "s", "lower"},
		{"protocol.compile.s", "s", "lower"},

		{"sweep.records", "count", "higher"},
		{"sweep.worker_busy_ratio", "ratio", "higher"},
		{"sweep.trial_s_p90", "s", "lower"},

		{"jobs.submit_ms", "ms", "lower"},
		{"jobs.status_ms", "ms", "lower"},
		{"jobs.summary_ms", "ms", "lower"},
		{"jobs.queue_wait_s", "s", "lower"},
		{"jobs.first_record_s", "s", "lower"},
		{"jobs.checkpoint_bytes", "bytes", "lower"},
		{"jobs.http_errors", "count", "lower"},
	}
	for _, f := range append(append([]string(nil), exptFamilies...), "other") {
		ms = append(ms, layerMetric{"expt.trial_s." + f, "s", "lower"})
	}
	for _, n := range append(append([]string(nil), spanNames...), ruleLayer) {
		ms = append(ms, layerMetric{"trace.self_s." + n, "s", "lower"})
	}
	return append(ms,
		layerMetric{"trace.unattributed_s", "s", "lower"},
		layerMetric{"trace.overhead_s", "s", "lower"},
		layerMetric{"trace.spans", "count", "lower"},
	)
}()

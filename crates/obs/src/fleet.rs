//! Fleet-level serving metrics: many nodes, one report.
//!
//! The multi-node scheduler (`hpu-fleet`) serves jobs across N
//! independent machines, each producing its own [`ServeReport`]. A
//! [`FleetReport`] merges them: aggregate goodput and throughput over
//! the whole fleet, per-node utilization summaries, steal/migration
//! counts, and routing quality — the router's mean completed-job
//! latency against an omniscient lowest-completion-time oracle that
//! knows every node's true parameters and full future.

use crate::serve::{percentile, JobOutcome, ServeReport};

/// Per-node summary inside a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// The node's label.
    pub name: String,
    /// Jobs the router placed on this node (including later-stolen ones).
    pub routed: usize,
    /// Jobs this node ran to completion.
    pub completed: usize,
    /// Completed over routed (1.0 for an idle node — nothing was lost).
    pub goodput: f64,
    /// Fraction of the node's makespan with at least one CPU core busy.
    pub cpu_utilization: f64,
    /// Fraction of the node's makespan the device lease was held.
    pub gpu_utilization: f64,
    /// The node's local makespan (first arrival to last completion).
    pub makespan: f64,
    /// Queued jobs migrated *away* from this node.
    pub steals_out: usize,
    /// Queued jobs migrated *to* this node.
    pub steals_in: usize,
    /// GPU circuit-breaker trips on this node.
    pub breaker_trips: u64,
    /// Drift-triggered calibration replans on this node — its private
    /// pricing generation; a peer's drift never advances it.
    pub replans: u64,
}

/// Crash-recovery tallies of one fleet run. All zero when no node
/// fault fired — the healthy case and the default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryCounters {
    /// Node crashes that fired (machine lost, jobs evicted).
    pub crashes: u64,
    /// `NodeDown` transitions: the failure detector declared a node
    /// unreachable and quarantined it from routing.
    pub node_downs: u64,
    /// `NodeUp` transitions: a quarantined node rejoined service.
    pub node_ups: u64,
    /// Evicted jobs re-placed *with* a usable level-boundary checkpoint —
    /// they resume instead of re-running from scratch.
    pub jobs_recovered: u64,
    /// Evicted jobs re-placed with no checkpoint — restarted from
    /// scratch on the receiving node.
    pub jobs_restarted: u64,
    /// Combine levels the recovered jobs did **not** re-execute, summed
    /// over every recovery — the direct payoff of checkpointing.
    pub levels_saved: u64,
    /// Bytes of host state the used checkpoints captured.
    pub checkpoint_bytes: u64,
    /// Mean time from a fault firing to its jobs being safely re-placed
    /// (fleet virtual time); 0 when nothing was recovered.
    pub mttr: f64,
}

/// Aggregated metrics of one fleet serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-node summaries, fleet node order.
    pub nodes: Vec<NodeSummary>,
    /// Jobs submitted to the fleet.
    pub submitted: usize,
    /// Jobs that ran to completion (on any node).
    pub completed: usize,
    /// Jobs rejected with a full queue.
    pub rejected: usize,
    /// Jobs cancelled on their deadline.
    pub cancelled: usize,
    /// Jobs that failed to compile or execute.
    pub failed: usize,
    /// Completed over submitted (1.0 for an empty fleet).
    pub goodput: f64,
    /// Latest node makespan end — the fleet-wide serving window.
    pub makespan: f64,
    /// Completed jobs per unit time over the fleet window.
    pub throughput: f64,
    /// Median completed-job latency across every node.
    pub p50_latency: f64,
    /// 95th-percentile completed-job latency across every node.
    pub p95_latency: f64,
    /// 99th-percentile completed-job latency across every node.
    pub p99_latency: f64,
    /// Mean completed-job latency across every node.
    pub mean_latency: f64,
    /// Load-triggered steals: queued jobs migrated from an overloaded
    /// node's backfillable suffix to an idle node.
    pub steals: usize,
    /// Fault-triggered migrations: queued jobs rerouted off a node whose
    /// GPU circuit breaker tripped.
    pub migrations: usize,
    /// Mean completed-job latency of the omniscient
    /// lowest-completion-time oracle on the same submission stream; 0
    /// when the oracle was not computed.
    pub oracle_mean_latency: f64,
    /// `mean_latency / oracle_mean_latency`; 0 when the oracle was not
    /// computed. 1.0 is oracle-equal, but the ratio is not bounded by it:
    /// the oracle occupies each node serially for a job's whole cost,
    /// while the real fleet overlaps jobs on a node's CPU cores and GPU,
    /// so values well below 1 occur at saturating load.
    pub routing_quality: f64,
    /// Node-probes the router skipped because the node produced no
    /// finite price for the arriving shape (plan-cache compile error,
    /// NaN/∞ beliefs). One arrival can contribute several: one per bad
    /// node it was scored against.
    pub unpriceable: usize,
    /// Crash-recovery tallies (all zero without node faults).
    pub recovery: RecoveryCounters,
}

impl FleetReport {
    /// Merges per-node serve reports into a fleet report.
    ///
    /// `routed[i]` is how many jobs the router placed on node `i` (its
    /// submission count there — a stolen job counts at both nodes),
    /// `steals` / `migrations` are the load- and fault-triggered
    /// migration tallies, and `steal_flow[i] = (out, in)` that node's
    /// share. Latency percentiles are formed over the concatenated
    /// per-node completion streams, sorted here before the
    /// [`percentile`] readout.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        names: Vec<String>,
        reports: &[ServeReport],
        routed: Vec<usize>,
        steal_flow: Vec<(usize, usize)>,
        replans: Vec<u64>,
        submitted: usize,
        steals: usize,
        migrations: usize,
    ) -> FleetReport {
        debug_assert_eq!(names.len(), reports.len());
        let nodes: Vec<NodeSummary> = names
            .into_iter()
            .zip(reports.iter())
            .enumerate()
            .map(|(i, (name, r))| {
                let routed_i = routed.get(i).copied().unwrap_or(0);
                let (steals_out, steals_in) = steal_flow.get(i).copied().unwrap_or((0, 0));
                NodeSummary {
                    name,
                    routed: routed_i,
                    completed: r.completed,
                    goodput: if routed_i == 0 {
                        1.0
                    } else {
                        r.completed as f64 / routed_i as f64
                    },
                    cpu_utilization: r.cpu_utilization,
                    gpu_utilization: r.gpu_utilization,
                    makespan: r.makespan,
                    steals_out,
                    steals_in,
                    breaker_trips: r.breaker_trips,
                    replans: replans.get(i).copied().unwrap_or(0),
                }
            })
            .collect();
        let completed: usize = reports.iter().map(|r| r.completed).sum();
        let rejected: usize = reports.iter().map(|r| r.rejected).sum();
        let cancelled: usize = reports.iter().map(|r| r.cancelled).sum();
        let failed: usize = reports.iter().map(|r| r.failed).sum();
        // Per-node completion streams concatenate interleaved — sort
        // before the percentile readout (release-mode `percentile` would
        // also detect-and-sort, but never rely on the safety net).
        let mut latencies: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.jobs.iter())
            .filter(|j| j.outcome == JobOutcome::Completed)
            .map(|j| j.latency())
            .collect();
        let mean_latency = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        latencies.sort_by(f64::total_cmp);
        let makespan = reports
            .iter()
            .map(|r| r.makespan)
            .fold(0.0f64, |a, b| a.max(b));
        FleetReport {
            nodes,
            submitted,
            completed,
            rejected,
            cancelled,
            failed,
            goodput: if submitted == 0 {
                1.0
            } else {
                completed as f64 / submitted as f64
            },
            makespan,
            throughput: if makespan > 0.0 {
                completed as f64 / makespan
            } else {
                0.0
            },
            p50_latency: percentile(&latencies, 50.0),
            p95_latency: percentile(&latencies, 95.0),
            p99_latency: percentile(&latencies, 99.0),
            mean_latency,
            steals,
            migrations,
            oracle_mean_latency: 0.0,
            routing_quality: 0.0,
            unpriceable: 0,
            recovery: RecoveryCounters::default(),
        }
    }

    /// Attaches the omniscient oracle's mean completed-job latency and
    /// derives the routing-quality ratio from it.
    pub fn with_oracle(mut self, oracle_mean_latency: f64) -> FleetReport {
        self.oracle_mean_latency = oracle_mean_latency;
        self.routing_quality = if oracle_mean_latency > 0.0 {
            self.mean_latency / oracle_mean_latency
        } else {
            0.0
        };
        self
    }

    /// Attaches the count of unpriceable node-probes the router skipped
    /// (see [`FleetReport::unpriceable`]).
    pub fn with_unpriceable(mut self, unpriceable: usize) -> FleetReport {
        self.unpriceable = unpriceable;
        self
    }

    /// Attaches the crash-recovery tallies (see [`RecoveryCounters`]).
    pub fn with_recovery(mut self, recovery: RecoveryCounters) -> FleetReport {
        self.recovery = recovery;
        self
    }

    /// JSON object of the fleet summary (nodes as an array of objects).
    /// Field set and order are part of the stable schema; bump
    /// `"schema"` when a field's meaning changes.
    pub fn to_json(&self) -> String {
        let f = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "0".to_string()
            }
        };
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"name\":\"{}\",\"routed\":{},\"completed\":{},\"goodput\":{},\
                     \"cpu_utilization\":{},\"gpu_utilization\":{},\"makespan\":{},\
                     \"steals_out\":{},\"steals_in\":{},\"breaker_trips\":{},\"replans\":{}}}",
                    n.name,
                    n.routed,
                    n.completed,
                    f(n.goodput),
                    f(n.cpu_utilization),
                    f(n.gpu_utilization),
                    f(n.makespan),
                    n.steals_out,
                    n.steals_in,
                    n.breaker_trips,
                    n.replans,
                )
            })
            .collect();
        format!(
            "{{\"schema\":1,\"submitted\":{},\"completed\":{},\"rejected\":{},\
             \"cancelled\":{},\"failed\":{},\"goodput\":{},\"makespan\":{},\
             \"throughput\":{},\"p50_latency\":{},\"p95_latency\":{},\"p99_latency\":{},\
             \"mean_latency\":{},\"steals\":{},\"migrations\":{},\"unpriceable\":{},\
             \"oracle_mean_latency\":{},\"routing_quality\":{},\
             \"recovery\":{{\"crashes\":{},\"node_downs\":{},\"node_ups\":{},\
             \"jobs_recovered\":{},\"jobs_restarted\":{},\"levels_saved\":{},\
             \"checkpoint_bytes\":{},\"mttr\":{}}},\"nodes\":[{}]}}",
            self.submitted,
            self.completed,
            self.rejected,
            self.cancelled,
            self.failed,
            f(self.goodput),
            f(self.makespan),
            f(self.throughput),
            f(self.p50_latency),
            f(self.p95_latency),
            f(self.p99_latency),
            f(self.mean_latency),
            self.steals,
            self.migrations,
            self.unpriceable,
            f(self.oracle_mean_latency),
            f(self.routing_quality),
            self.recovery.crashes,
            self.recovery.node_downs,
            self.recovery.node_ups,
            self.recovery.jobs_recovered,
            self.recovery.jobs_restarted,
            self.recovery.levels_saved,
            self.recovery.checkpoint_bytes,
            f(self.recovery.mttr),
            nodes.join(","),
        )
    }

    /// Plain-text summary: one fleet line plus one line per node.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet: submitted {} | completed {} rejected {} cancelled {} failed {}\n\
             goodput {:.3} | makespan {:.2} | throughput {:.6}\n\
             latency mean {:.2} p50 {:.2} p95 {:.2} p99 {:.2}\n\
             steals {} | migrations {} | unpriceable {} | routing quality {:.3} (oracle mean {:.2})\n",
            self.submitted,
            self.completed,
            self.rejected,
            self.cancelled,
            self.failed,
            self.goodput,
            self.makespan,
            self.throughput,
            self.mean_latency,
            self.p50_latency,
            self.p95_latency,
            self.p99_latency,
            self.steals,
            self.migrations,
            self.unpriceable,
            self.routing_quality,
            self.oracle_mean_latency,
        );
        if self.recovery.crashes > 0 || self.recovery.node_downs > 0 {
            let r = &self.recovery;
            out.push_str(&format!(
                "recovery: crashes {} | down {} up {} | recovered {} restarted {} | \
                 levels saved {} | ckpt bytes {} | mttr {:.2}\n",
                r.crashes,
                r.node_downs,
                r.node_ups,
                r.jobs_recovered,
                r.jobs_restarted,
                r.levels_saved,
                r.checkpoint_bytes,
                r.mttr,
            ));
        }
        for n in &self.nodes {
            out.push_str(&format!(
                "  {}: routed {} completed {} goodput {:.3} | util cpu {:.3} gpu {:.3} | \
                 makespan {:.2} | steals out {} in {} | trips {} replans {}\n",
                n.name,
                n.routed,
                n.completed,
                n.goodput,
                n.cpu_utilization,
                n.gpu_utilization,
                n.makespan,
                n.steals_out,
                n.steals_in,
                n.breaker_trips,
                n.replans,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{JobOutcome, JobRecord};

    fn record(id: u64, arrival: f64, end: f64) -> JobRecord {
        JobRecord {
            id,
            name: format!("job-{id}"),
            outcome: JobOutcome::Completed,
            arrival,
            start: arrival,
            end,
            predicted: 0.0,
            service: 0.0,
            fallback: false,
            retries: 0,
            degraded: false,
            calibration_generation: 0,
        }
    }

    fn report(records: Vec<JobRecord>) -> ServeReport {
        ServeReport::new(records, 1.0, 0.5)
    }

    #[test]
    fn merges_counts_and_interleaved_latencies() {
        // Node 0 completes latencies [9, 1]; node 1 completes [5]. The
        // concatenated stream is unsorted; the percentiles must still be
        // the true order statistics.
        let a = report(vec![record(0, 0.0, 9.0), record(2, 1.0, 2.0)]);
        let b = report(vec![record(1, 0.0, 5.0)]);
        let r = FleetReport::new(
            vec!["n0".into(), "n1".into()],
            &[a, b],
            vec![2, 1],
            vec![(0, 0), (0, 0)],
            vec![0, 0],
            3,
            0,
            0,
        );
        assert_eq!(r.submitted, 3);
        assert_eq!(r.completed, 3);
        assert!((r.goodput - 1.0).abs() < 1e-12);
        assert_eq!(r.p50_latency, 5.0);
        assert_eq!(r.p99_latency, 9.0);
        assert!((r.mean_latency - 5.0).abs() < 1e-12);
        assert!(!r.render().is_empty());
    }

    #[test]
    fn oracle_ratio_and_empty_fleet() {
        let r = FleetReport::new(Vec::new(), &[], Vec::new(), Vec::new(), Vec::new(), 0, 0, 0);
        assert!((r.goodput - 1.0).abs() < 1e-12);
        assert_eq!(r.routing_quality, 0.0);
        let a = report(vec![record(0, 0.0, 2.0)]);
        let r = FleetReport::new(
            vec!["n0".into()],
            &[a],
            vec![1],
            vec![(0, 0)],
            vec![0],
            1,
            0,
            0,
        )
        .with_oracle(1.0);
        assert!((r.routing_quality - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_parseable_and_carries_nodes() {
        let a = report(vec![record(0, 0.0, 4.0)]);
        let r = FleetReport::new(
            vec!["hpu1".into()],
            &[a],
            vec![1],
            vec![(1, 2)],
            vec![3],
            1,
            1,
            2,
        )
        .with_oracle(4.0)
        .with_unpriceable(5);
        let j = crate::json::Json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(
            j.get("unpriceable").and_then(crate::json::Json::as_f64),
            Some(5.0)
        );
        assert_eq!(
            j.get("schema").and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            j.get("steals").and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            j.get("migrations").and_then(crate::json::Json::as_f64),
            Some(2.0)
        );
        let nodes = j.get("nodes").and_then(crate::json::Json::as_arr).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(
            nodes[0].get("replans").and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
        // The recovery object is always present (all-zero when no fault
        // fired) so downstream parsers never branch on its existence.
        let rec = j.get("recovery").expect("recovery object");
        assert_eq!(
            rec.get("crashes").and_then(crate::json::Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn recovery_counters_round_trip_through_json() {
        let a = report(vec![record(0, 0.0, 4.0)]);
        let r = FleetReport::new(
            vec!["hpu1".into()],
            &[a],
            vec![1],
            vec![(0, 0)],
            vec![0],
            1,
            0,
            0,
        )
        .with_recovery(RecoveryCounters {
            crashes: 1,
            node_downs: 1,
            node_ups: 1,
            jobs_recovered: 2,
            jobs_restarted: 3,
            levels_saved: 9,
            checkpoint_bytes: 4096,
            mttr: 1.5,
        });
        let j = crate::json::Json::parse(&r.to_json()).expect("valid JSON");
        let rec = j.get("recovery").expect("recovery object");
        let f = |k: &str| rec.get(k).and_then(crate::json::Json::as_f64);
        assert_eq!(f("crashes"), Some(1.0));
        assert_eq!(f("node_downs"), Some(1.0));
        assert_eq!(f("node_ups"), Some(1.0));
        assert_eq!(f("jobs_recovered"), Some(2.0));
        assert_eq!(f("jobs_restarted"), Some(3.0));
        assert_eq!(f("levels_saved"), Some(9.0));
        assert_eq!(f("checkpoint_bytes"), Some(4096.0));
        assert_eq!(f("mttr"), Some(1.5));
        assert!(r.render().contains("recovery:"));
    }
}

//! Execution statistics.

use std::collections::BTreeMap;
use std::fmt;
use vsp_isa::FuClass;

/// Statistics gathered over one simulation run.
#[derive(Debug, Default, PartialEq)]
pub struct RunStats {
    /// Total cycles elapsed (including stalls).
    pub cycles: u64,
    /// Instruction words issued.
    pub words: u64,
    /// Operations committed (guard true), per functional-unit class.
    pub ops_by_class: BTreeMap<FuClass, u64>,
    /// Operations whose guard was false (issued but annulled).
    pub annulled_ops: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Crossbar transfers committed.
    pub transfers: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Instruction-cache miss stalls, in cycles.
    pub icache_stall_cycles: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Peak operations the machine could have issued (words × issue
    /// width), for utilization accounting.
    pub issue_capacity: u64,
    /// Branch-redirect bubbles: words issued inside a branch-delay
    /// shadow that performed no work (no committed and no annulled
    /// operations). Together with [`RunStats::icache_stall_cycles`]
    /// these break down where non-productive cycles went — note the
    /// bubbles are *issued words*, so `cycles == words +
    /// icache_stall_cycles` still holds.
    pub branch_bubble_cycles: u64,
    /// Committed operations per cluster, indexed by cluster id.
    pub ops_by_cluster: Vec<u64>,
    /// Per-cluster issue-occupancy histogram: `util_histogram[c][k]` is
    /// the number of issued words in which cluster `c` committed
    /// exactly `k` operations. Bucket 0 is derived from `words` when
    /// the run finishes.
    pub util_histogram: Vec<Vec<u64>>,
    /// Datapath perturbations a fault model actually made on the
    /// surviving timeline (a checkpoint restore rolls this back with the
    /// rest of the stats; the fault plan's own counters keep totals
    /// including replayed regions).
    pub faults_injected: u64,
    /// Faults the recovery loop detected (simulator error or watchdog
    /// expiry attributed to an injection).
    pub faults_detected: u64,
    /// Detected faults erased by re-execution from a checkpoint.
    pub faults_corrected: u64,
    /// Detected faults that survived every retry (the run failed or the
    /// region was abandoned).
    pub faults_uncorrectable: u64,
    /// Cycles of work discarded by checkpoint rollbacks (re-executed
    /// cycles; the recovery overhead on top of `cycles`).
    pub recovery_cycles: u64,
}

impl Clone for RunStats {
    fn clone(&self) -> Self {
        RunStats {
            ops_by_class: self.ops_by_class.clone(),
            ops_by_cluster: self.ops_by_cluster.clone(),
            util_histogram: self.util_histogram.clone(),
            ..*self
        }
    }

    /// Copies `source` into this value's per-cluster buffers instead of
    /// new ones: checkpoints refresh and restore statistics this way.
    fn clone_from(&mut self, source: &Self) {
        let mut ops_by_cluster = std::mem::take(&mut self.ops_by_cluster);
        let mut util_histogram = std::mem::take(&mut self.util_histogram);
        ops_by_cluster.clone_from(&source.ops_by_cluster);
        util_histogram.clone_from(&source.util_histogram);
        *self = RunStats {
            ops_by_class: source.ops_by_class.clone(),
            ops_by_cluster,
            util_histogram,
            ..*source
        };
    }
}

impl RunStats {
    /// Total committed operations.
    pub fn total_ops(&self) -> u64 {
        self.ops_by_class.values().sum()
    }

    /// Fraction of issue slots doing committed work.
    pub fn utilization(&self) -> f64 {
        if self.issue_capacity == 0 {
            0.0
        } else {
            self.total_ops() as f64 / self.issue_capacity as f64
        }
    }

    /// Committed operations per cycle.
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_ops() as f64 / self.cycles as f64
        }
    }

    /// Sustained GOPS at a given clock frequency.
    pub fn gops_at(&self, freq_mhz: f64) -> f64 {
        self.ops_per_cycle() * freq_mhz / 1000.0
    }

    /// Cycles spent issuing productive words — total cycles minus
    /// icache refill stalls and branch-redirect bubbles.
    pub fn productive_cycles(&self) -> u64 {
        self.cycles
            .saturating_sub(self.icache_stall_cycles)
            .saturating_sub(self.branch_bubble_cycles)
    }

    /// Mean committed occupancy of one cluster, in operations per
    /// issued word, from its utilization histogram.
    pub fn mean_cluster_occupancy(&self, cluster: usize) -> f64 {
        let Some(hist) = self.util_histogram.get(cluster) else {
            return 0.0;
        };
        let words: u64 = hist.iter().sum();
        if words == 0 {
            return 0.0;
        }
        let ops: u64 = hist.iter().enumerate().map(|(k, &n)| k as u64 * n).sum();
        ops as f64 / words as f64
    }

    /// Records a committed operation.
    pub(crate) fn record_op(&mut self, class: FuClass, cluster: usize) {
        *self.ops_by_class.entry(class).or_insert(0) += 1;
        self.record_cluster_op(cluster);
    }

    /// The per-cluster half of [`RunStats::record_op`]; the fast path
    /// counts classes in a flat array and folds them in at finalize, so
    /// its hot loop only pays this part.
    pub(crate) fn record_cluster_op(&mut self, cluster: usize) {
        if self.ops_by_cluster.len() <= cluster {
            self.ops_by_cluster.resize(cluster + 1, 0);
        }
        self.ops_by_cluster[cluster] += 1;
    }

    /// Adds a flat per-cluster occupancy histogram into
    /// [`RunStats::util_histogram`]: `flat[c * bins + k]` counts the
    /// issued words in which cluster `c` committed exactly `k > 0`
    /// operations (bucket 0 is skipped; [`RunStats::finalize`] derives
    /// it). The rows take the shape word-by-word recording gave them:
    /// they reach the last cluster that recorded a word, and each ends
    /// at its last nonzero bucket.
    pub(crate) fn add_util_histogram(&mut self, flat: &[u64], bins: usize) {
        for (c, row) in flat.chunks(bins).enumerate() {
            for (ops, &n) in row.iter().enumerate().skip(1) {
                if n == 0 {
                    continue;
                }
                if self.util_histogram.len() <= c {
                    self.util_histogram.resize(c + 1, Vec::new());
                }
                let hist = &mut self.util_histogram[c];
                if hist.len() <= ops {
                    hist.resize(ops + 1, 0);
                }
                hist[ops] += n;
            }
        }
    }

    /// Derives histogram zero-buckets from the word count. Idempotent;
    /// called whenever stats are read out of a simulator, so the hot
    /// loop never pays for idle clusters.
    pub(crate) fn finalize(&mut self) {
        for hist in &mut self.util_histogram {
            if hist.is_empty() {
                hist.push(0);
            }
            let busy: u64 = hist[1..].iter().sum();
            hist[0] = self.words.saturating_sub(busy);
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cycles, {} words, {} ops ({:.2} ops/cycle, {:.0}% issue utilization)",
            self.cycles,
            self.words,
            self.total_ops(),
            self.ops_per_cycle(),
            self.utilization() * 100.0
        )?;
        writeln!(
            f,
            "loads {}, stores {}, transfers {}, taken branches {}, icache stalls {}",
            self.loads, self.stores, self.transfers, self.taken_branches, self.icache_stall_cycles
        )?;
        write!(
            f,
            "icache misses {}, branch bubbles {}, annulled {}",
            self.icache_misses, self.branch_bubble_cycles, self.annulled_ops
        )?;
        if !self.ops_by_cluster.is_empty() {
            write!(f, "\nops by cluster:")?;
            for (c, ops) in self.ops_by_cluster.iter().enumerate() {
                write!(f, " c{c}={ops}")?;
            }
        }
        if self.faults_injected > 0 || self.faults_detected > 0 {
            write!(
                f,
                "\nfaults: injected {}, detected {}, corrected {}, uncorrectable {}, recovery cycles {}",
                self.faults_injected,
                self.faults_detected,
                self.faults_corrected,
                self.faults_uncorrectable,
                self.recovery_cycles
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = RunStats {
            cycles: 100,
            words: 100,
            issue_capacity: 3300,
            ..RunStats::default()
        };
        for _ in 0..330 {
            s.record_op(FuClass::Alu, 0);
        }
        assert_eq!(s.total_ops(), 330);
        assert_eq!(s.ops_by_cluster, vec![330]);
        assert!((s.utilization() - 0.1).abs() < 1e-12);
        assert!((s.ops_per_cycle() - 3.3).abs() < 1e-12);
        assert!((s.gops_at(650.0) - 2.145).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let s = RunStats::default();
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.ops_per_cycle(), 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = RunStats {
            cycles: 42,
            ..RunStats::default()
        };
        assert!(s.to_string().contains("42 cycles"));
    }

    #[test]
    fn display_surfaces_icache_misses_and_bubbles() {
        let s = RunStats {
            icache_misses: 7,
            branch_bubble_cycles: 5,
            ops_by_cluster: vec![10, 20],
            ..RunStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("icache misses 7"), "{text}");
        assert!(text.contains("branch bubbles 5"), "{text}");
        assert!(text.contains("c0=10"), "{text}");
        assert!(text.contains("c1=20"), "{text}");
    }

    #[test]
    fn stall_breakdown_and_productive_cycles() {
        let s = RunStats {
            cycles: 100,
            words: 90,
            icache_stall_cycles: 10,
            branch_bubble_cycles: 6,
            ..RunStats::default()
        };
        assert_eq!(s.productive_cycles(), 84);
    }

    #[test]
    fn clone_from_copies_everything_into_the_existing_buffers() {
        let mut source = RunStats {
            cycles: 9,
            words: 8,
            loads: 3,
            recovery_cycles: 2,
            ..RunStats::default()
        };
        source.record_op(FuClass::Mul, 2);
        source.add_util_histogram(&[0, 0, 0, 0, 0, 1], 2);
        let mut target = RunStats {
            ops_by_cluster: vec![7; 8],
            util_histogram: vec![vec![1; 4]; 8],
            ..RunStats::default()
        };
        let buffer = target.ops_by_cluster.as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target, source.clone());
        assert_eq!(target.ops_by_cluster.as_ptr(), buffer, "buffer reused");
    }

    #[test]
    fn histogram_zero_bucket_derived_at_finalize() {
        let mut s = RunStats {
            words: 10,
            ..RunStats::default()
        };
        // Cluster 0 issued 2 ops in three words and 1 op in four words;
        // cluster 1 never issued, and bucket 3 is past cluster 0's
        // busiest word.
        s.add_util_histogram(&[0, 4, 3, 0, 0, 0, 0, 0], 4);
        assert_eq!(s.util_histogram, vec![vec![0, 4, 3]]);
        s.finalize();
        assert_eq!(s.util_histogram[0], vec![3, 4, 3]);
        // Idempotent.
        s.finalize();
        assert_eq!(s.util_histogram[0], vec![3, 4, 3]);
        let occ = s.mean_cluster_occupancy(0);
        assert!((occ - 1.0).abs() < 1e-12, "{occ}"); // 10 ops / 10 words
        assert_eq!(s.mean_cluster_occupancy(5), 0.0);
    }
}

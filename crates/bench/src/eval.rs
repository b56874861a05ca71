//! Parallel, memoized evaluation engine for Tables 1 and 2.
//!
//! The paper's tables re-run the same (kernel, machine) cells over and
//! over: Table 1 and Table 2 share three machine columns and both DCT
//! kernels, and `tables -- all` used to recompute every one serially.
//! [`EvalEngine`] treats each (machine, [`RowSource`]) pair as a cell,
//! fans uncached cells across worker threads ([`vsp_dse::par_map`]), and
//! memoizes results under a content key — a fingerprint of the full
//! machine configuration, not its name — so identical configurations
//! share work across tables.
//!
//! Output ordering is guaranteed byte-identical to the serial path:
//! cells are stitched back in (machine column × source) order, exactly
//! the order [`vsp_kernels::variants::assemble_table`] produces with
//! [`vsp_kernels::variants::table1_rows`] /
//! [`vsp_kernels::variants::table2_rows`], and the tests hold it there.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::sync::Mutex;
use vsp_core::MachineConfig;
use vsp_kernels::variants::{self, Row, RowError, TableRow};
use vsp_metrics::{Recorder, SharedRegistry, Stopwatch};

/// One per-machine row generator: a kernel's full variant sweep, the
/// unit of memoization and parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowSource {
    /// Full motion search.
    FullSearch,
    /// Three-step search.
    ThreeStep,
    /// Traditional (direct) 2-D DCT.
    DctDirect,
    /// Row/column 2-D DCT.
    DctRowCol,
    /// RGB→YCbCr converter/subsampler.
    Color,
    /// Variable-bit-rate coder.
    Vbr,
}

impl RowSource {
    /// Table 1's kernels, in the paper's row order.
    pub const TABLE1: [RowSource; 6] = [
        RowSource::FullSearch,
        RowSource::ThreeStep,
        RowSource::DctDirect,
        RowSource::DctRowCol,
        RowSource::Color,
        RowSource::Vbr,
    ];

    /// Table 2's kernels (the DCTs), in row order.
    pub const TABLE2: [RowSource; 2] = [RowSource::DctDirect, RowSource::DctRowCol];

    /// Stable display name (the `source` label of the per-cell
    /// wall-time histogram).
    pub fn name(self) -> &'static str {
        match self {
            RowSource::FullSearch => "full-search",
            RowSource::ThreeStep => "three-step",
            RowSource::DctDirect => "dct-direct",
            RowSource::DctRowCol => "dct-rowcol",
            RowSource::Color => "color",
            RowSource::Vbr => "vbr",
        }
    }

    /// Computes this source's rows for one machine (the expensive cell:
    /// transform pipeline + scheduling).
    fn rows(self, machine: &MachineConfig) -> Result<Vec<Row>, RowError> {
        match self {
            RowSource::FullSearch => variants::full_search_rows(machine),
            RowSource::ThreeStep => variants::three_step_rows(machine),
            RowSource::DctDirect => variants::dct_direct_rows(machine),
            RowSource::DctRowCol => variants::dct_rowcol_rows(machine),
            RowSource::Color => variants::color_rows(machine),
            RowSource::Vbr => variants::vbr_rows(machine),
        }
    }
}

/// Streams `fmt` output straight into a hasher, so `Debug`-based
/// fingerprints allocate nothing.
struct HashWriter<'h>(&'h mut DefaultHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Content key for one machine configuration.
///
/// [`MachineConfig`] does not implement `Hash` (it carries floats in the
/// megacell models), so the fingerprint hashes its full `Debug`
/// rendering, allocation-free — every field, not just the name,
/// participates, and two structurally identical configs (e.g. I4C8S4
/// appearing in both tables' model lists) collapse to one cell.
fn fingerprint(machine: &MachineConfig) -> u64 {
    let mut h = DefaultHasher::new();
    let _ = write!(HashWriter(&mut h), "{machine:?}");
    h.finish()
}

/// Parallel + memoized sweep evaluator. Construct once and reuse across
/// tables so the cache pays off; see the module docs for the ordering
/// guarantee.
#[derive(Debug, Default)]
pub struct EvalEngine {
    cache: Mutex<HashMap<(u64, RowSource), Vec<Row>>>,
    recorder: Option<SharedRegistry>,
}

impl EvalEngine {
    /// A parallel engine with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a metrics registry: every assembly records cache
    /// hits/misses (`vsp_eval_cache_{hits,misses}_total`), per-cell
    /// wall-time histograms (`vsp_eval_cell_micros{source,machine}`)
    /// and batch throughput (`vsp_eval_cells_total{path}`,
    /// `vsp_eval_cells_per_sec{path}`).
    pub fn with_recorder(mut self, recorder: SharedRegistry) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Counts one batch's cache outcome: `requested` cells were asked
    /// for, `computed` of them had to be evaluated fresh; the rest —
    /// including duplicate machine configurations deduplicated by
    /// content key — were served from (or alongside) the cache.
    fn record_cache_traffic(&self, requested: usize, computed: usize) {
        if let Some(rec) = &self.recorder {
            rec.with(|r| {
                r.add("vsp_eval_cache_misses_total", &[], computed as u64);
                r.add(
                    "vsp_eval_cache_hits_total",
                    &[],
                    requested.saturating_sub(computed) as u64,
                );
            });
        }
    }

    /// Records one finished batch of `cells` fresh evaluations that
    /// took `micros` of wall clock on the parallel path.
    fn record_batch(&self, cells: usize, micros: u64) {
        if let Some(rec) = &self.recorder {
            rec.with(|r| {
                let labels = [("path", "parallel")];
                r.add("vsp_eval_cells_total", &labels, cells as u64);
                if cells > 0 && micros > 0 {
                    r.gauge(
                        "vsp_eval_cells_per_sec",
                        &labels,
                        cells as f64 * 1_000_000.0 / micros as f64,
                    );
                }
            });
        }
    }

    /// Number of cells currently memoized.
    pub fn cached_cells(&self) -> usize {
        self.cache.lock().expect("eval cache poisoned").len()
    }

    /// Evaluates `sources` × `machines` and stitches the cells into
    /// table rows, byte-identical to
    /// `assemble_table(machines, |m| sources-concatenated rows)`.
    ///
    /// # Errors
    ///
    /// The first failing cell's [`RowError`], in (machine, source)
    /// order, as `assemble_table` reports it; failed cells are not
    /// memoized.
    pub fn assemble(
        &self,
        machines: &[MachineConfig],
        sources: &[RowSource],
    ) -> Result<Vec<TableRow>, RowError> {
        // Work list: every (machine, source) cell not already cached,
        // deduplicated by content key so identical machines are
        // computed once.
        let mut jobs: Vec<(u64, RowSource, &MachineConfig)> = Vec::new();
        let mut queued: HashSet<(u64, RowSource)> = HashSet::new();
        {
            let cache = self.cache.lock().expect("eval cache poisoned");
            for m in machines {
                let fp = fingerprint(m);
                for &s in sources {
                    if !cache.contains_key(&(fp, s)) && queued.insert((fp, s)) {
                        jobs.push((fp, s, m));
                    }
                }
            }
        }
        self.record_cache_traffic(machines.len() * sources.len(), jobs.len());
        let recorder = self.recorder.clone();
        let eval_cell = move |(fp, s, m): (u64, RowSource, &MachineConfig)| {
            let watch = Stopwatch::start();
            let rows = s.rows(m);
            if let Some(rec) = &recorder {
                rec.with(|r| {
                    r.observe(
                        "vsp_eval_cell_micros",
                        &[("source", s.name()), ("machine", m.name.as_str())],
                        watch.elapsed_micros(),
                    );
                });
            }
            ((fp, s), rows)
        };
        let batch = Stopwatch::start();
        let cells = jobs.len();
        let computed = vsp_dse::par_map(jobs, || (), |(), job| eval_cell(job));
        self.record_batch(cells, batch.elapsed_micros());
        {
            let mut cache = self.cache.lock().expect("eval cache poisoned");
            for (cell, rows) in computed {
                cache.insert(cell, rows?);
            }
        }

        Ok(self.stitch(machines, sources))
    }

    /// Stitches cached cells into table rows: per-machine columns are
    /// the concatenation of each source's rows, in `sources` order —
    /// exactly what `table1_rows`/`table2_rows` produce — then rows
    /// transpose the columns just like `assemble_table`. Every
    /// (machine, source) cell must already be cached.
    fn stitch(&self, machines: &[MachineConfig], sources: &[RowSource]) -> Vec<TableRow> {
        let cache = self.cache.lock().expect("eval cache poisoned");
        let columns: Vec<Vec<&Row>> = machines
            .iter()
            .map(|m| {
                let fp = fingerprint(m);
                sources
                    .iter()
                    .flat_map(|&s| cache[&(fp, s)].iter())
                    .collect()
            })
            .collect();
        let Some(first) = columns.first() else {
            return Vec::new();
        };
        (0..first.len())
            .map(|i| TableRow {
                kernel: first[i].kernel,
                variant: first[i].variant,
                cycles: columns.iter().map(|c| c[i].cycles).collect(),
            })
            .collect()
    }

    /// Table 1's rows for `machines`.
    ///
    /// # Errors
    ///
    /// As [`EvalEngine::assemble`].
    pub fn table1(&self, machines: &[MachineConfig]) -> Result<Vec<TableRow>, RowError> {
        self.assemble(machines, &RowSource::TABLE1)
    }

    /// Table 2's rows for `machines`.
    ///
    /// # Errors
    ///
    /// As [`EvalEngine::assemble`].
    pub fn table2(&self, machines: &[MachineConfig]) -> Result<Vec<TableRow>, RowError> {
        self.assemble(machines, &RowSource::TABLE2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models;
    use vsp_kernels::variants::{assemble_table, table1_rows, table2_rows};

    #[test]
    fn engine_table1_matches_serial_assembly() {
        let machines = models::table1_models();
        let engine = EvalEngine::new();
        assert_eq!(
            engine.table1(&machines),
            assemble_table(&machines, table1_rows)
        );
    }

    #[test]
    fn engine_table2_matches_serial_assembly() {
        let machines = models::table2_models();
        let engine = EvalEngine::new();
        assert_eq!(
            engine.table2(&machines),
            assemble_table(&machines, table2_rows)
        );
    }

    #[test]
    fn cache_is_shared_across_tables() {
        let engine = EvalEngine::new();
        engine.table1(&models::table1_models()).unwrap();
        let after_t1 = engine.cached_cells();
        // 5 machines × 6 kernels = 30 cells.
        assert_eq!(after_t1, 30);
        engine.table2(&models::table2_models()).unwrap();
        // Table 2 shares I4C8S4/I4C8S5/I2C16S5 columns and both DCT
        // kernels with Table 1: only the two m16 machines add cells.
        assert_eq!(engine.cached_cells(), after_t1 + 4);
    }

    #[test]
    fn empty_machine_list_yields_empty_table() {
        assert!(EvalEngine::new().table1(&[]).unwrap().is_empty());
    }

    #[test]
    fn recorder_counts_cells_and_cache_traffic() {
        let reg = SharedRegistry::new();
        let engine = EvalEngine::new().with_recorder(reg.clone());
        let machines = models::table2_models();
        let rows = engine.table2(&machines);
        assert_eq!(rows, EvalEngine::new().table2(&machines));
        let cells = engine.cached_cells() as u64;
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("vsp_eval_cache_misses_total", &[]),
            Some(cells)
        );
        assert_eq!(snap.counter("vsp_eval_cache_hits_total", &[]), Some(0));
        assert_eq!(
            snap.counter("vsp_eval_cells_total", &[("path", "parallel")]),
            Some(cells)
        );
        let cell = snap
            .histogram(
                "vsp_eval_cell_micros",
                &[
                    ("source", "dct-direct"),
                    ("machine", machines[0].name.as_str()),
                ],
            )
            .expect("per-cell wall-time histogram");
        assert_eq!(cell.count, 1);
        assert!(snap
            .gauge("vsp_eval_cells_per_sec", &[("path", "parallel")])
            .is_some());

        // A second identical call is served from cache: hits only.
        engine.table2(&machines).unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("vsp_eval_cache_misses_total", &[]),
            Some(cells)
        );
        assert_eq!(snap.counter("vsp_eval_cache_hits_total", &[]), Some(cells));
    }
}

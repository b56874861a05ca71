//! Golden test: the list and modulo schedulers' decisions behind
//! Tables 1/2 are pinned, not just the cycle counts they round into.
//!
//! Every distinct (kernel, strategy, [`CompileShape`]) compile that
//! [`table1_recipes`] performs on the seven paper models is listed in
//! first-use order with its II, length and an FNV-1a checksum of its
//! issue times and placements (`golden_schedules.txt`). A second test
//! pins the modulo scheduler's decision log on the three pipelined
//! loops that search longest, among them the costliest of those
//! compiles, the color converter's loop on I4C8S4: how many II
//! attempts, placements, evictions and forced placements each makes,
//! and an FNV-1a checksum of every such event's fields in order. A
//! third sums the same log over every distinct modulo compile behind
//! Table 1, so a faster scheduler shows that it searches exactly as
//! much as before.
//!
//! A deliberate scheduler change that moves a schedule regenerates the
//! golden from the rendering the failure message prints.

use vsp_core::models;
use vsp_kernels::variants::{distinct_table1_recipes, table1_recipes, Recipe};
use vsp_sched::{compile, compile_with, CompileOptions, ScheduleArtifact, SchedulerChoice};
use vsp_trace::{SchedOrdering, TraceEvent, TraceSink};

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues the 64-bit FNV-1a checksum `h` over more bytes.
fn fnv1a_continue(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checksum of a schedule's issue times, then its (cluster, slot)
/// placements.
fn fingerprint(times: &[u32], placements: &[(u8, u8)]) -> u64 {
    let times = times.iter().flat_map(|t| t.to_le_bytes());
    let places = placements.iter().flat_map(|&(c, s)| [c, s]);
    fnv1a(times.chain(places))
}

fn render(recipes: &[Recipe]) -> String {
    let mut out = String::new();
    for (n, r) in recipes.iter().enumerate() {
        let result = compile(&r.kernel, &r.machine, &r.strategy)
            .unwrap_or_else(|e| panic!("{} / {}: {e}", r.machine.name, r.strategy.name));
        let schedule = match &result.schedule {
            ScheduleArtifact::Sequential { cycles } => format!("seq cycles={cycles}"),
            ScheduleArtifact::List(s) => format!(
                "list length={} fnv={:016x}",
                s.length,
                fingerprint(&s.times, &s.placements)
            ),
            ScheduleArtifact::Modulo(s) => format!(
                "modulo ii={} length={} fnv={:016x}",
                s.ii,
                s.length,
                fingerprint(&s.times, &s.placements)
            ),
        };
        out.push_str(&format!(
            "{n:3} {} {} {}: {schedule}\n",
            r.machine.name, r.kernel.name, r.strategy.name
        ));
    }
    out
}

#[test]
fn table1_schedules_match_committed_golden() {
    let golden = include_str!("golden_schedules.txt");
    let rendered = render(&distinct_table1_recipes(&models::all_models()));
    let first_diff = golden
        .lines()
        .zip(rendered.lines())
        .find(|(g, r)| g != r)
        .map(|(g, r)| format!("golden:   {g}\nrendered: {r}"));
    assert!(
        golden == rendered,
        "schedules drifted from golden_schedules.txt ({} golden lines, {} rendered)\n{}\nrendered:\n{rendered}",
        golden.lines().count(),
        rendered.lines().count(),
        first_diff.unwrap_or_default()
    );
}

/// Counts the modulo scheduler's decision events and checksums their
/// fields in emission order.
#[derive(Debug, PartialEq)]
struct ModuloDecisions {
    attempts: u64,
    places: u64,
    evictions: u64,
    forces: u64,
    fnv: u64,
}

impl Default for ModuloDecisions {
    fn default() -> Self {
        ModuloDecisions {
            attempts: 0,
            places: 0,
            evictions: 0,
            forces: 0,
            fnv: fnv1a([]),
        }
    }
}

impl TraceSink for ModuloDecisions {
    fn emit(&mut self, event: TraceEvent) {
        let words: &[u32] = match event {
            TraceEvent::IiAttempt { ii, ordering } => {
                self.attempts += 1;
                let ordering = match ordering {
                    SchedOrdering::ScarceFirst => 0,
                    SchedOrdering::Height => 1,
                    SchedOrdering::Program => 2,
                };
                &[0, ii, ordering]
            }
            TraceEvent::ModuloPlace {
                op,
                ready,
                time,
                row,
                cluster,
                slot,
            } => {
                self.places += 1;
                &[1, op, ready, time, row, cluster.into(), slot.into()]
            }
            TraceEvent::ModuloEvict { evicted, by } => {
                self.evictions += 1;
                &[2, evicted, by]
            }
            TraceEvent::ModuloForce { op, time, cluster } => {
                self.forces += 1;
                &[3, op, time, cluster.into()]
            }
            _ => return,
        };
        self.fnv = fnv1a_continue(self.fnv, words.iter().flat_map(|w| w.to_le_bytes()));
    }
}

/// The modulo scheduler's decision log, in order, on the Table 1
/// pipelined loops that search longest: the color converter's loop on
/// I4C8S4 (the costliest compile behind Table 1), the predicated VBR
/// loop on I2C16S4 and the direct DCT's MAC loop on I4C8S4.
#[test]
fn pipelined_loops_decision_log_is_pinned() {
    let expected = [
        (
            models::i4c8s4(),
            "rgb2ycbcr420",
            "loop/swp",
            59,
            ModuloDecisions {
                attempts: 28,
                places: 34_179,
                evictions: 29_942,
                forces: 51,
                fnv: 0x6b41_798b_93a9_0cbd,
            },
        ),
        (
            models::i2c16s4(),
            "vbr",
            "predicate/swp",
            18,
            ModuloDecisions {
                attempts: 25,
                places: 6_466,
                evictions: 6_032,
                forces: 0,
                fnv: 0x7311_bdd9_6c5e_470b,
            },
        ),
        (
            models::i4c8s4(),
            "dct-direct-mac",
            "mac/swp",
            38,
            ModuloDecisions {
                attempts: 4,
                places: 3_152,
                evictions: 2_599,
                forces: 79,
                fnv: 0x3420_f1ea_920b_6df4,
            },
        ),
    ];
    for (machine, kernel, strategy, ii, decisions) in expected {
        let recipe = table1_recipes(&machine)
            .into_iter()
            .find(|r| r.kernel.name == kernel && r.strategy.name == strategy)
            .unwrap_or_else(|| panic!("Table 1 compiles {kernel} under {strategy}"));
        let mut log = ModuloDecisions::default();
        let result = compile_with(
            &recipe.kernel,
            &recipe.machine,
            &recipe.strategy,
            &mut CompileOptions {
                sink: Some(&mut log),
                ..CompileOptions::default()
            },
        )
        .expect("recipe compiles");
        assert_eq!(result.summary().ii(), Some(ii), "{kernel} {strategy}");
        assert_eq!(log, decisions, "{} {kernel} {strategy}", machine.name);
    }
}

/// The modulo scheduler's whole workload behind Table 1: the decision
/// logs of every distinct modulo compile `distinct_table1_recipes`
/// performs on the seven paper models, in first-use order, summed into
/// one count per event kind and one FNV-1a over every event. A change
/// that makes compiles cheaper while this holds saves on bookkeeping,
/// not on search.
#[test]
fn table1_modulo_work_is_pinned() {
    let mut log = ModuloDecisions::default();
    let mut compiles = 0;
    for r in distinct_table1_recipes(&models::all_models()) {
        if !matches!(r.strategy.scheduler, SchedulerChoice::Modulo { .. }) {
            continue;
        }
        let result = compile_with(
            &r.kernel,
            &r.machine,
            &r.strategy,
            &mut CompileOptions {
                sink: Some(&mut log),
                ..CompileOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{} / {}: {e}", r.machine.name, r.strategy.name));
        assert!(matches!(result.schedule, ScheduleArtifact::Modulo(_)));
        compiles += 1;
    }
    assert_eq!(compiles, 84, "distinct modulo compiles");
    assert_eq!(
        log,
        ModuloDecisions {
            attempts: 291,
            places: 158_382,
            evictions: 130_435,
            forces: 465,
            fnv: 0x75ef_aea2_94d7_021e,
        }
    );
}

/// Counts the list scheduler's decision events and checksums them in
/// emission order.
#[derive(Debug, PartialEq)]
struct ListDecisions {
    places: u64,
    conflicts: u64,
    fnv: u64,
}

impl Default for ListDecisions {
    fn default() -> Self {
        ListDecisions {
            places: 0,
            conflicts: 0,
            fnv: fnv1a([]),
        }
    }
}

impl TraceSink for ListDecisions {
    fn emit(&mut self, event: TraceEvent) {
        let words: &[u32] = match event {
            TraceEvent::ListPlace {
                op,
                ready,
                cycle,
                cluster,
                slot,
            } => {
                self.places += 1;
                &[0, op, ready, cycle, cluster.into(), slot.into()]
            }
            TraceEvent::ListConflict { op, cycle, cluster } => {
                self.conflicts += 1;
                &[1, op, cycle, cluster.into()]
            }
            _ => return,
        };
        self.fnv = fnv1a_continue(self.fnv, words.iter().flat_map(|w| w.to_le_bytes()));
    }
}

/// The list scheduler's decision log on the Table 1 list recipes with
/// the longest slot scans on I4C8S4: the flattened SAD, the flattened
/// constant-coefficient column DCT, and the widened DCT MAC, which
/// claims four clusters. Every rejected cycle is a `ListConflict`, so
/// the counts pin where each scan starts as well as where it ends.
#[test]
fn long_list_scans_decision_log_is_pinned() {
    let machine = models::i4c8s4();
    let recipes = table1_recipes(&machine);
    let expected = [
        (
            "sad16x16",
            "sad-flat",
            516,
            1_795,
            49_188,
            0xda93_950b_3577_a85d,
        ),
        (
            "dct1d-const-col",
            "cleanup/list",
            215,
            730,
            22_743,
            0xd9c8_3e7c_6a03_1411,
        ),
        (
            "dct-direct-mac",
            "mac-wide/list",
            293,
            1_158,
            20_680,
            0xdcbf_dbf9_c90a_ab9d,
        ),
    ];
    for (kernel, strategy, length, places, conflicts, fnv) in expected {
        let recipe = recipes
            .iter()
            .find(|r| r.kernel.name == kernel && r.strategy.name == strategy)
            .unwrap_or_else(|| panic!("Table 1 compiles {kernel} under {strategy}"));
        let mut log = ListDecisions::default();
        let result = compile_with(
            &recipe.kernel,
            &recipe.machine,
            &recipe.strategy,
            &mut CompileOptions {
                sink: Some(&mut log),
                ..CompileOptions::default()
            },
        )
        .expect("recipe compiles");
        assert_eq!(
            result.summary().length(),
            Some(length),
            "{kernel} {strategy}"
        );
        assert_eq!(
            log,
            ListDecisions {
                places,
                conflicts,
                fnv,
            },
            "{kernel} {strategy}"
        );
    }
}

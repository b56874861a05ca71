//! Seeded, deterministic fault plans.
//!
//! A [`FaultPlan`] is pure data (diffable, easy to
//! ship in a campaign report); [`FaultPlan::build`] turns it into a
//! stateful [`SeededFaults`] model. Injection decisions are drawn from
//! one seeded RNG stream in datapath-event order, so the same plan
//! replayed over the same program is bit-identical — and a rolled-back
//! region *re-draws* on re-execution, which is what makes transient
//! faults correctable by the `recover` loop while [`StuckAt`] faults
//! (which consult no randomness) deterministically recur.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vsp_isa::ClusterId;
use vsp_sim::FaultModel;

/// Injection rates are expressed in events per million datapath reads
/// (integer parts-per-million: exact, stable, and cheap to test
/// against a single RNG draw).
pub const PPM_SCALE: u32 = 1_000_000;

/// A register bit wired to a fixed level — a hard fault in one
/// register-file cell. Applied on every read of that register, so
/// unlike a transient flip it survives checkpoint re-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckAt {
    /// Cluster whose register file is damaged.
    pub cluster: ClusterId,
    /// Register index.
    pub reg: u16,
    /// Bit position (0–15).
    pub bit: u8,
    /// Level the bit is stuck at.
    pub value: bool,
}

impl StuckAt {
    /// Applies the stuck bit to a read value.
    pub fn apply(&self, value: i16) -> i16 {
        let mask = 1i16 << (self.bit & 15);
        if self.value {
            value | mask
        } else {
            value & !mask
        }
    }
}

/// A deterministic description of what to inject.
///
/// All rates are in parts per million per datapath event (see
/// [`PPM_SCALE`]); zero everywhere (and no stuck-at entries) is a
/// *quiet* plan whose built model reports itself disabled, compiling
/// down to the same fast path as `NoFaults`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; same seed + same program ⇒ bit-identical injections.
    pub seed: u64,
    /// Transient single-bit flip rate on register-file reads (ppm).
    pub reg_read_ppm: u32,
    /// Transient single-bit flip rate on local-SRAM reads (ppm).
    pub mem_read_ppm: u32,
    /// Transient single-bit flip rate on crossbar transfers (ppm).
    pub xfer_ppm: u32,
    /// Fetch latency-jitter rate (ppm per fetched word).
    pub jitter_ppm: u32,
    /// Largest jitter stall, in cycles (each jitter event draws
    /// uniformly from `1..=max_jitter`; 0 disables jitter even when
    /// `jitter_ppm > 0`).
    pub max_jitter: u32,
    /// Hard faults: register bits stuck at a level.
    pub stuck_at: Vec<StuckAt>,
}

impl FaultPlan {
    /// A quiet plan: no injections at all. Its built model reports
    /// itself disabled, so the simulator takes the fault-free path.
    pub fn quiet() -> Self {
        FaultPlan {
            seed: 0,
            reg_read_ppm: 0,
            mem_read_ppm: 0,
            xfer_ppm: 0,
            jitter_ppm: 0,
            max_jitter: 0,
            stuck_at: Vec::new(),
        }
    }

    /// A uniform transient-flip plan: the same rate on all three value
    /// sites (register file, SRAM, crossbar), no jitter, no stuck-ats.
    pub fn transient(seed: u64, ppm: u32) -> Self {
        FaultPlan {
            seed,
            reg_read_ppm: ppm,
            mem_read_ppm: ppm,
            xfer_ppm: ppm,
            ..FaultPlan::quiet()
        }
    }

    /// Whether this plan can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.reg_read_ppm == 0
            && self.mem_read_ppm == 0
            && self.xfer_ppm == 0
            && (self.jitter_ppm == 0 || self.max_jitter == 0)
            && self.stuck_at.is_empty()
    }

    /// Builds the stateful model the simulator consults.
    pub fn build(&self) -> SeededFaults {
        SeededFaults {
            rng: SmallRng::seed_from_u64(self.seed),
            plan: self.clone(),
            enabled: !self.is_quiet(),
            counts: InjectionCounts::default(),
        }
    }
}

/// How many injections a [`SeededFaults`] model actually made, by site.
///
/// Unlike `RunStats::faults_injected` — which a checkpoint restore
/// rolls back with the rest of the surviving-timeline statistics —
/// these counters only ever grow, so they include injections into
/// regions that were later discarded and replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Register-file read flips (transient).
    pub reg_read: u64,
    /// Local-SRAM read flips (transient).
    pub mem_read: u64,
    /// Crossbar transfer flips (transient).
    pub xfer: u64,
    /// Fetch latency-jitter events.
    pub jitter: u64,
    /// Reads whose value a stuck-at bit actually changed.
    pub stuck_at: u64,
}

impl InjectionCounts {
    /// Total injections across all sites.
    pub fn total(&self) -> u64 {
        self.reg_read + self.mem_read + self.xfer + self.jitter + self.stuck_at
    }
}

/// The stateful model built from a [`FaultPlan`]; implements
/// `vsp_sim::FaultModel`.
///
/// Hand it to the simulator as `&mut model` (the trait is implemented
/// for mutable references) to keep its [`InjectionCounts`] readable
/// after the run.
#[derive(Debug, Clone)]
pub struct SeededFaults {
    plan: FaultPlan,
    /// `!plan.is_quiet()`, decided once: the simulator asks on every
    /// register read.
    enabled: bool,
    rng: SmallRng,
    counts: InjectionCounts,
}

impl SeededFaults {
    /// The plan this model was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far (monotonic; see [`InjectionCounts`]).
    pub fn counts(&self) -> InjectionCounts {
        self.counts
    }

    /// One Bernoulli draw at `ppm` parts per million. Draws only when
    /// the rate is nonzero so a site with rate 0 consumes no randomness
    /// (keeping per-site streams comparable across plans).
    fn hit(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.gen_range(0..PPM_SCALE) < ppm
    }

    /// Flips one uniformly chosen bit.
    fn flip(&mut self, value: i16) -> i16 {
        value ^ (1i16 << self.rng.gen_range(0..16u32))
    }

    fn stuck(&mut self, cluster: ClusterId, reg: u16, value: i16) -> i16 {
        let mut v = value;
        for s in &self.plan.stuck_at {
            if s.cluster == cluster && s.reg == reg {
                v = s.apply(v);
            }
        }
        if v != value {
            self.counts.stuck_at += 1;
        }
        v
    }
}

impl FaultModel for SeededFaults {
    #[inline]
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn on_reg_read(&mut self, _cycle: u64, cluster: ClusterId, reg: u16, value: i16) -> i16 {
        let mut v = self.stuck(cluster, reg, value);
        if self.hit(self.plan.reg_read_ppm) {
            self.counts.reg_read += 1;
            v = self.flip(v);
        }
        v
    }

    fn on_mem_read(
        &mut self,
        _cycle: u64,
        _cluster: ClusterId,
        _bank: u8,
        _addr: u32,
        value: i16,
    ) -> i16 {
        if self.hit(self.plan.mem_read_ppm) {
            self.counts.mem_read += 1;
            return self.flip(value);
        }
        value
    }

    fn on_xfer(
        &mut self,
        _cycle: u64,
        _from: ClusterId,
        _to: ClusterId,
        _src: u16,
        value: i16,
    ) -> i16 {
        if self.hit(self.plan.xfer_ppm) {
            self.counts.xfer += 1;
            return self.flip(value);
        }
        value
    }

    fn fetch_jitter(&mut self, _cycle: u64, _word: u32) -> u32 {
        if self.plan.max_jitter > 0 && self.hit(self.plan.jitter_ppm) {
            self.counts.jitter += 1;
            return self.rng.gen_range(1..=self.plan.max_jitter);
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plans_report_disabled() {
        assert!(FaultPlan::quiet().is_quiet());
        assert!(!FaultPlan::quiet().build().enabled());
        // Jitter rate without a jitter magnitude is still quiet.
        let p = FaultPlan {
            jitter_ppm: 500,
            ..FaultPlan::quiet()
        };
        assert!(p.is_quiet());
        assert!(!FaultPlan::transient(1, 100).is_quiet());
    }

    #[test]
    fn stuck_at_forces_the_bit_both_ways() {
        let s1 = StuckAt {
            cluster: 0,
            reg: 3,
            bit: 2,
            value: true,
        };
        assert_eq!(s1.apply(0), 4);
        assert_eq!(s1.apply(4), 4);
        let s0 = StuckAt { value: false, ..s1 };
        assert_eq!(s0.apply(-1i16), -5);
        assert_eq!(s0.apply(0), 0);
    }

    #[test]
    fn same_seed_same_injection_stream() {
        let plan = FaultPlan::transient(42, 100_000);
        let run = |mut m: SeededFaults| {
            let mut out = Vec::new();
            for i in 0..2000 {
                out.push(m.on_reg_read(i, 0, (i % 32) as u16, i as i16));
            }
            (out, m.counts())
        };
        let (a, ca) = run(plan.build());
        let (b, cb) = run(plan.build());
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.reg_read > 0, "rate 10% over 2000 reads must inject");
    }

    #[test]
    fn flips_are_single_bit() {
        let mut m = FaultPlan::transient(7, PPM_SCALE).build();
        for i in 0..100 {
            let v = 0x1234;
            let f = m.on_reg_read(i, 0, 0, v);
            assert_eq!((f ^ v).count_ones(), 1, "exactly one bit differs");
        }
        assert_eq!(m.counts().reg_read, 100, "ppm=1e6 injects every read");
    }
}

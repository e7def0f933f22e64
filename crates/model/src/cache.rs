//! Canonical plan keys and the generation-tagged plan cache.
//!
//! Compilation (paper §5.1/§5.2) is a pure function of the algorithm's
//! recurrence, the input size, the requested strategy and the machine
//! parameters — so compiled plans are cacheable by construction.
//! [`PlanKey`] canonicalizes that tuple (resolving spellings that compile
//! identically to one key) and [`PlanCache`] memoizes `(Plan, PlanCost)`
//! pairs behind it, so a serving fleet's admission path becomes a hash
//! lookup instead of a fresh compile.
//!
//! Invalidation protocol: every key carries the cache's *generation*.
//! When calibration rewrites the machine beliefs, the owner calls
//! [`PlanCache::bump_generation`] — one O(1) bump drops every entry and
//! subsequent lookups lazily re-fill under the new generation. Nothing is
//! recompiled synchronously at the drift event.

use std::collections::HashMap;
use std::sync::Arc;

use crate::basic::BasicSchedule;
use crate::cost::CostFn;
use crate::error::ModelError;
use crate::levels::LevelProfile;
use crate::params::MachineParams;
use crate::plan::{compile, compile_timed, Plan, ScheduleSpec};
use crate::prediction::{plan_cost, PlanCost};
use crate::recurrence::Recurrence;

/// Canonical form of a [`ScheduleSpec`] for keying.
///
/// Spellings that compile to the same plan collapse to one variant:
/// `CpuParallel` on a 1-core machine is `Sequential`, `Basic` resolves its
/// crossover (and its degrade-to-CPU cases become `CpuParallel`), and `α`
/// is stored by bit pattern with `-0.0` normalized so the key is `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CanonSpec {
    /// One CPU core.
    Sequential,
    /// All `p` CPU cores.
    CpuParallel,
    /// Whole input on the GPU.
    GpuOnly,
    /// Basic schedule with the crossover resolved.
    Basic {
        /// Resolved first top-down GPU level.
        crossover: u32,
    },
    /// Advanced schedule with explicit parameters.
    Advanced {
        /// Bit pattern of the (normalized) CPU fraction `α`.
        alpha_bits: u64,
        /// Top-down transfer level `y`.
        transfer_level: u32,
    },
    /// Advanced schedule whose `(α*, y)` the compiler derives. Kept as its
    /// own variant: the derivation is deterministic in `(machine, rec,
    /// n)`, all of which the key already pins, and resolving it at key
    /// time would cost the very optimization the cache exists to skip.
    AdvancedAuto,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= *b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_u64(hash: &mut u64, v: u64) {
    fnv1a(hash, &v.to_le_bytes());
}

fn fnv_f64(hash: &mut u64, v: f64) {
    // Normalize -0.0 so equal values hash equally.
    let v = if v == 0.0 { 0.0 } else { v };
    fnv_u64(hash, v.to_bits());
}

/// Hashes the recurrence; `None` when the cost function is
/// [`CostFn::Custom`] — an opaque closure has no canonical identity, so
/// plans built from it must not be shared between recurrences.
fn recurrence_hash(rec: &Recurrence) -> Option<u64> {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, rec.a as u64);
    fnv_u64(&mut h, rec.b as u64);
    fnv_f64(&mut h, rec.leaf_cost);
    match &rec.f {
        CostFn::Constant(c) => {
            fnv_u64(&mut h, 1);
            fnv_f64(&mut h, *c);
        }
        CostFn::Linear(c) => {
            fnv_u64(&mut h, 2);
            fnv_f64(&mut h, *c);
        }
        CostFn::Power { c, e } => {
            fnv_u64(&mut h, 3);
            fnv_f64(&mut h, *c);
            fnv_f64(&mut h, *e);
        }
        CostFn::LinLog(c) => {
            fnv_u64(&mut h, 4);
            fnv_f64(&mut h, *c);
        }
        CostFn::Custom(_) => return None,
    }
    Some(h)
}

fn params_hash(machine: &MachineParams) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, machine.p as u64);
    fnv_u64(&mut h, machine.g as u64);
    fnv_f64(&mut h, machine.gamma);
    fnv_f64(&mut h, machine.lambda);
    fnv_f64(&mut h, machine.delta);
    h
}

/// Canonical identity of one compilation: what [`PlanCache`] keys on.
///
/// The input size is kept *exactly* (not bucketed): transfer words, split
/// chunk sizes and the executor level count are all functions of `n`, so
/// two sizes in the same power-of-two bucket still compile to different
/// plans. [`PlanKey::size_bucket`] exposes the bucket for stats and
/// reporting only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// FNV-1a hash of the recurrence (`a`, `b`, `f`, leaf cost).
    pub rec_hash: u64,
    /// FNV-1a hash of the machine parameters (`p`, `g`, `γ`, `λ`, `δ`).
    pub params_hash: u64,
    /// Exact input size the plan is compiled for.
    pub n: u64,
    /// Executor combine-level count.
    pub exec_levels: u32,
    /// Canonicalized strategy.
    pub spec: CanonSpec,
    /// Machine-belief generation the entry is valid under.
    pub generation: u64,
}

impl PlanKey {
    /// Builds the canonical key for one compilation, or `None` when the
    /// recurrence is uncacheable (a [`CostFn::Custom`] closure).
    pub fn new(
        spec: &ScheduleSpec,
        machine: &MachineParams,
        rec: &Recurrence,
        n: u64,
        exec_levels: u32,
        generation: u64,
    ) -> Option<PlanKey> {
        let rec_hash = recurrence_hash(rec)?;
        let canon = match spec {
            ScheduleSpec::Sequential => CanonSpec::Sequential,
            ScheduleSpec::CpuParallel if machine.p == 1 => CanonSpec::Sequential,
            ScheduleSpec::CpuParallel => CanonSpec::CpuParallel,
            ScheduleSpec::GpuOnly => CanonSpec::GpuOnly,
            ScheduleSpec::Basic { crossover } => {
                let cross = match crossover {
                    Some(c) => Some(*c),
                    None => BasicSchedule::derive(machine, rec).crossover,
                };
                match cross {
                    // The degrade cases compile to the CPU-parallel plan.
                    None => CanonSpec::CpuParallel,
                    Some(c) if c > exec_levels => CanonSpec::CpuParallel,
                    Some(c) => CanonSpec::Basic { crossover: c },
                }
            }
            ScheduleSpec::Advanced {
                alpha,
                transfer_level,
            } => {
                let a = if *alpha == 0.0 { 0.0 } else { *alpha };
                CanonSpec::Advanced {
                    alpha_bits: a.to_bits(),
                    transfer_level: *transfer_level,
                }
            }
            ScheduleSpec::AdvancedAuto => CanonSpec::AdvancedAuto,
        };
        Some(PlanKey {
            rec_hash,
            params_hash: params_hash(machine),
            n,
            exec_levels,
            spec: canon,
            generation,
        })
    }

    /// Power-of-two size bucket (`⌊log₂ n⌋`), for stats and reporting.
    pub fn size_bucket(&self) -> u32 {
        63 - self.n.max(1).leading_zeros()
    }

    /// Deterministic 64-bit FNV-1a digest of the whole key — stable
    /// across processes, unlike the `std` hasher.
    pub fn hash64(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_u64(&mut h, self.rec_hash);
        fnv_u64(&mut h, self.params_hash);
        fnv_u64(&mut h, self.n);
        fnv_u64(&mut h, self.exec_levels as u64);
        match self.spec {
            CanonSpec::Sequential => fnv_u64(&mut h, 1),
            CanonSpec::CpuParallel => fnv_u64(&mut h, 2),
            CanonSpec::GpuOnly => fnv_u64(&mut h, 3),
            CanonSpec::Basic { crossover } => {
                fnv_u64(&mut h, 4);
                fnv_u64(&mut h, crossover as u64);
            }
            CanonSpec::Advanced {
                alpha_bits,
                transfer_level,
            } => {
                fnv_u64(&mut h, 5);
                fnv_u64(&mut h, alpha_bits);
                fnv_u64(&mut h, transfer_level as u64);
            }
            CanonSpec::AdvancedAuto => fnv_u64(&mut h, 6),
        }
        fnv_u64(&mut h, self.generation);
        h
    }
}

/// Hit/miss/eviction counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh compile (including
    /// uncacheable recurrences).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups, 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<Plan>,
    cost: Arc<PlanCost>,
    last_used: u64,
}

/// A bounded, LRU, generation-tagged memo of compiled plans and their
/// admission costs.
///
/// Not synchronized: the serving loop owns one cache per fleet. Errors are
/// never cached — an invalid spec fails compilation identically on every
/// lookup.
pub struct PlanCache {
    map: HashMap<PlanKey, Entry>,
    capacity: usize,
    generation: u64,
    tick: u64,
    stats: CacheStats,
}

/// Default number of cached plans ([`PlanCache::new`] via `Default`).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (min 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            generation: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The current machine-belief generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates every entry by advancing the generation: the O(1)
    /// replan primitive. Entries re-fill lazily on subsequent lookups.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
        self.map.clear();
    }

    /// Looks up (or compiles and caches) the plan and admission cost for
    /// one job. Hits record `plan_cache.hits` and the
    /// `model.cache_lookup_ns` histogram into `metrics`; misses go
    /// through [`compile_timed`] (recording `model.compile_ns`) and
    /// `plan_cache.misses`.
    pub fn lookup_or_compile(
        &mut self,
        spec: &ScheduleSpec,
        machine: &MachineParams,
        rec: &Recurrence,
        n: u64,
        exec_levels: u32,
        metrics: Option<&hpu_obs::MetricsRegistry>,
    ) -> Result<(Arc<Plan>, Arc<PlanCost>), ModelError> {
        let t0 = std::time::Instant::now();
        let key = PlanKey::new(spec, machine, rec, n, exec_levels, self.generation);
        if let Some(key) = key {
            if let Some(entry) = self.map.get_mut(&key) {
                self.tick += 1;
                entry.last_used = self.tick;
                self.stats.hits += 1;
                if let Some(m) = metrics {
                    m.inc("plan_cache.hits", 1);
                    m.observe("model.cache_lookup_ns", t0.elapsed().as_nanos() as f64);
                }
                return Ok((Arc::clone(&entry.plan), Arc::clone(&entry.cost)));
            }
        }
        self.stats.misses += 1;
        if let Some(m) = metrics {
            m.inc("plan_cache.misses", 1);
        }
        let plan = match metrics {
            Some(m) => compile_timed(spec, machine, rec, n, exec_levels, m)?,
            None => compile(spec, machine, rec, n, exec_levels)?,
        };
        let profile = LevelProfile::new(machine, rec, n);
        let cost = plan_cost(&profile, &plan)?;
        let plan = Arc::new(plan);
        let cost = Arc::new(cost);
        if let Some(key) = key {
            if self.map.len() >= self.capacity {
                self.evict_lru(metrics);
            }
            self.tick += 1;
            self.map.insert(
                key,
                Entry {
                    plan: Arc::clone(&plan),
                    cost: Arc::clone(&cost),
                    last_used: self.tick,
                },
            );
        }
        Ok((plan, cost))
    }

    fn evict_lru(&mut self, metrics: Option<&hpu_obs::MetricsRegistry>) {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k);
        if let Some(k) = victim {
            self.map.remove(&k);
            self.stats.evictions += 1;
            if let Some(m) = metrics {
                m.inc("plan_cache.evictions", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineParams {
        MachineParams::hpu1().with_transfer_cost(100.0, 0.01)
    }

    #[test]
    fn hit_returns_the_fresh_compile_byte_for_byte() {
        let mut cache = PlanCache::new(8);
        let machine = machine();
        let rec = Recurrence::mergesort();
        let n = 1u64 << 12;
        let lx = rec.num_levels(n);
        let spec = ScheduleSpec::Basic { crossover: None };
        let (p1, c1) = cache
            .lookup_or_compile(&spec, &machine, &rec, n, lx, None)
            .unwrap();
        let (p2, c2) = cache
            .lookup_or_compile(&spec, &machine, &rec, n, lx, None)
            .unwrap();
        let fresh = compile(&spec, &machine, &rec, n, lx).unwrap();
        assert_eq!(*p1, fresh);
        assert_eq!(*p2, fresh);
        assert_eq!(c1.total, c2.total);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn canonical_spellings_share_an_entry() {
        let mut cache = PlanCache::new(8);
        let machine = machine();
        let rec = Recurrence::mergesort();
        let n = 1u64 << 12;
        let lx = rec.num_levels(n);
        // HPU1 mergesort derives crossover 10: the explicit spelling must
        // hit the entry the derived spelling filled.
        cache
            .lookup_or_compile(
                &ScheduleSpec::Basic { crossover: None },
                &machine,
                &rec,
                n,
                lx,
                None,
            )
            .unwrap();
        cache
            .lookup_or_compile(
                &ScheduleSpec::Basic {
                    crossover: Some(10),
                },
                &machine,
                &rec,
                n,
                lx,
                None,
            )
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_bump_clears_and_refills_lazily() {
        let mut cache = PlanCache::new(8);
        let machine = machine();
        let rec = Recurrence::mergesort();
        let n = 1u64 << 10;
        let lx = rec.num_levels(n);
        let spec = ScheduleSpec::GpuOnly;
        cache
            .lookup_or_compile(&spec, &machine, &rec, n, lx, None)
            .unwrap();
        cache.bump_generation();
        assert_eq!(cache.generation(), 1);
        assert!(cache.is_empty(), "bump drops every entry");
        let (plan, _) = cache
            .lookup_or_compile(&spec, &machine, &rec, n, lx, None)
            .unwrap();
        assert_eq!(*plan, compile(&spec, &machine, &rec, n, lx).unwrap());
        assert_eq!(cache.stats().misses, 2, "refill is a miss, not a hit");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = PlanCache::new(2);
        let machine = machine();
        let rec = Recurrence::mergesort();
        for n in [1u64 << 8, 1 << 9] {
            cache
                .lookup_or_compile(
                    &ScheduleSpec::CpuParallel,
                    &machine,
                    &rec,
                    n,
                    rec.num_levels(n),
                    None,
                )
                .unwrap();
        }
        // Touch the first entry so the second is coldest.
        cache
            .lookup_or_compile(&ScheduleSpec::CpuParallel, &machine, &rec, 1 << 8, 8, None)
            .unwrap();
        // A third size evicts exactly one entry; the touched one survives.
        cache
            .lookup_or_compile(
                &ScheduleSpec::CpuParallel,
                &machine,
                &rec,
                1 << 10,
                10,
                None,
            )
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        cache
            .lookup_or_compile(&ScheduleSpec::CpuParallel, &machine, &rec, 1 << 8, 8, None)
            .unwrap();
        assert_eq!(cache.stats().hits, 2, "the recently-used entry survived");
    }

    #[test]
    fn custom_cost_fn_bypasses_the_cache() {
        let mut cache = PlanCache::new(8);
        let machine = machine();
        let rec = Recurrence::new(2, 2, CostFn::Custom(std::sync::Arc::new(|n| n)), 1.0).unwrap();
        for _ in 0..2 {
            cache
                .lookup_or_compile(&ScheduleSpec::CpuParallel, &machine, &rec, 256, 8, None)
                .unwrap();
        }
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        assert!(cache.is_empty(), "opaque recurrences are never stored");
    }

    #[test]
    fn errors_are_not_cached() {
        let mut cache = PlanCache::new(8);
        let machine = machine();
        let rec = Recurrence::mergesort();
        let bad = ScheduleSpec::Advanced {
            alpha: 2.0,
            transfer_level: 2,
        };
        for _ in 0..2 {
            assert!(cache
                .lookup_or_compile(&bad, &machine, &rec, 256, 8, None)
                .is_err());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn key_hash_is_deterministic_and_generation_sensitive() {
        let machine = machine();
        let rec = Recurrence::mergesort();
        let k0 = PlanKey::new(&ScheduleSpec::GpuOnly, &machine, &rec, 1 << 12, 12, 0).unwrap();
        let k0b = PlanKey::new(&ScheduleSpec::GpuOnly, &machine, &rec, 1 << 12, 12, 0).unwrap();
        let k1 = PlanKey::new(&ScheduleSpec::GpuOnly, &machine, &rec, 1 << 12, 12, 1).unwrap();
        assert_eq!(k0, k0b);
        assert_eq!(k0.hash64(), k0b.hash64());
        assert_ne!(k0.hash64(), k1.hash64());
        assert_eq!(k0.size_bucket(), 12);
    }

    #[test]
    fn one_core_cpu_parallel_keys_as_sequential() {
        let machine = MachineParams::new(1, 64, 0.5).unwrap();
        let rec = Recurrence::mergesort();
        let seq = PlanKey::new(&ScheduleSpec::Sequential, &machine, &rec, 256, 8, 0).unwrap();
        let par = PlanKey::new(&ScheduleSpec::CpuParallel, &machine, &rec, 256, 8, 0).unwrap();
        assert_eq!(seq, par);
    }

    /// At high offered load a serving node acquires plans for a handful
    /// of recurring shapes over and over: 12 mixed mergesort / d&c-sum
    /// shapes (n = 2^8..2^11, Basic{4} / GpuOnly / CpuParallel) cycled
    /// 100 times. A warm cache must be hit-dominated, and its p99 lookup
    /// must beat the p99 of a fresh `compile` + `plan_cost` per job.
    #[test]
    fn cached_plan_acquisition_beats_fresh_compiles_at_high_load() {
        use std::time::Instant;

        let machine = machine();
        let shapes: Vec<(ScheduleSpec, Recurrence, u64)> = (0..12)
            .map(|i| {
                let spec = match i % 3 {
                    0 => ScheduleSpec::Basic { crossover: Some(4) },
                    1 => ScheduleSpec::GpuOnly,
                    _ => ScheduleSpec::CpuParallel,
                };
                let rec = if i % 2 == 0 {
                    Recurrence::mergesort()
                } else {
                    Recurrence::dc_sum()
                };
                (spec, rec, 1u64 << (8 + i % 4))
            })
            .collect();
        let p99 = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[(v.len() * 99).div_ceil(100) - 1]
        };
        let total = shapes.len() * 100;
        let mut cache = PlanCache::default();
        let mut cached = Vec::with_capacity(total);
        let mut fresh = Vec::with_capacity(total);
        for (spec, rec, n) in shapes.iter().cycle().take(total) {
            let levels = rec.num_levels(*n);
            let t0 = Instant::now();
            cache
                .lookup_or_compile(spec, &machine, rec, *n, levels, None)
                .unwrap();
            cached.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let plan = compile(spec, &machine, rec, *n, levels).unwrap();
            plan_cost(&LevelProfile::new(&machine, rec, *n), &plan).unwrap();
            fresh.push(t0.elapsed().as_secs_f64());
        }
        let hit_rate = cache.stats().hit_rate();
        assert!(hit_rate > 0.9, "1200 acquisitions of 12 shapes: {hit_rate}");
        let (cached, fresh) = (p99(cached), p99(fresh));
        assert!(
            cached < fresh,
            "cached p99 {cached}s must beat fresh-compile p99 {fresh}s"
        );
    }
}

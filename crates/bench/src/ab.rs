//! The one A/B harness behind `repro hotpath`, `repro frontend`, and
//! `repro broadphase`, each of which measures one host-side
//! optimisation knob against its off switch: the invariant table
//! ([`Knob`]), the exactness runner ([`check`]), the timer
//! ([`time_pairs`]), and the artifact writer ([`write_artifact`]). The
//! contract is Mochi-style: filtering must be lossless against an exact
//! reference, and it is checked the same way for every knob.

use crate::faults::run_fault_tolerance;
use crate::metrics::GpuRun;
use crate::runner::{run_gpu, RunOptions};
use crate::schema::{self, SchemaError};
use rbcd_core::{FaultPlan, ObjectPair, RbcdConfig, RbcdStats, RbcdUnit};
use rbcd_gpu::{
    render_batch, BatchJob, BroadPhase, BroadphaseStats, CoherenceStats, FrameStats, FrontendMode,
    GovernorConfig, HotPathMode, PipelineMode, Simulator, SimulatorBuilder,
};
use rbcd_trace::CounterSet;
use rbcd_workloads::Scene;
use std::collections::BTreeSet;

/// The diagnostics only the span-mask hot path produces; they read 0
/// under [`HotPathMode::Reference`], and the energy model never reads
/// them.
const HOT_PATH_KEYS: [&str; 3] = ["raster.rows_empty", "raster.rows_full", "tile.scan_skipped"];

/// The `raster.*` keys that measure image-side work (timing and
/// fragment throughput), which a tile the broad phase skips never does.
/// Counts that are identical by construction (`tiles_processed`,
/// `primitives_fetched`, `fragments_collisionable`, the tile-cache
/// loads) are not listed, so they stay protected.
const IMAGE_SIDE_RASTER_KEYS: [&str; 10] = [
    "raster.cycles", "raster.fp_busy_cycles", "raster.fp_idle_cycles", "raster.zeb_stall_cycles",
    "raster.fragments_rasterized", "raster.fragments_to_early_z", "raster.fragments_shaded",
    "raster.pixels_covered", "raster.rows_empty", "raster.rows_full",
];

/// A host-side optimisation knob with an off switch; its methods are
/// its row of the invariant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Span-mask intra-tile hot path vs the per-pixel reference.
    HotPath,
    /// Incremental geometry front-end vs a full per-frame rebuild.
    Frontend,
    /// Screen-space broad phase vs rendering every tile.
    BroadPhase,
}

impl Knob {
    /// `opts` with this knob on or off. `RunOptions` is the one place a
    /// knob is set: every leg builds its frame policy with
    /// [`RunOptions::frame_policy`], and its unit's hot path follows
    /// `opts.gpu.hot_path`.
    pub fn set(self, opts: &RunOptions, on: bool) -> RunOptions {
        let mut o = opts.clone();
        match self {
            Knob::HotPath => {
                o.gpu.hot_path = if on { HotPathMode::Mask } else { HotPathMode::Reference };
            }
            Knob::Frontend => {
                o.frontend = if on { FrontendMode::Incremental } else { FrontendMode::Rebuild };
            }
            Knob::BroadPhase => o.broadphase = if on { BroadPhase::On } else { BroadPhase::Off },
        }
        o
    }

    /// Whether toggling this knob may change counter `key`. Every other
    /// key must be bit-identical between the two arms.
    pub fn may_move(self, key: &str) -> bool {
        match self {
            Knob::HotPath => HOT_PATH_KEYS.contains(&key),
            Knob::Frontend => key.starts_with("geom."),
            Knob::BroadPhase => {
                key.starts_with("broadphase.")
                    || key.starts_with("coherence.")
                    || IMAGE_SIDE_RASTER_KEYS.contains(&key)
            }
        }
    }

    /// `s` with every counter this knob may move zeroed: what must stay
    /// bit-identical between the knob's two arms. Zeroes exactly the
    /// [`FrameStats`] keys [`Knob::may_move`] admits.
    pub fn masked(self, mut s: FrameStats) -> FrameStats {
        match self {
            Knob::HotPath => (s.raster.rows_empty, s.raster.rows_full) = (0, 0),
            Knob::Frontend => {
                let g = &mut s.geometry;
                (g.reuse_draws, g.shaded_draws, g.bin_splices) = (0, 0, 0);
            }
            Knob::BroadPhase => {
                let r = &mut s.raster;
                (r.cycles, r.fp_busy_cycles, r.fp_idle_cycles, r.zeb_stall_cycles) = (0, 0, 0, 0);
                (r.fragments_rasterized, r.fragments_to_early_z, r.fragments_shaded) = (0, 0, 0);
                (r.pixels_covered, r.rows_empty, r.rows_full) = (0, 0, 0);
                s.coherence = CoherenceStats::default();
                s.broadphase = BroadphaseStats::default();
            }
        }
        s
    }

    /// Whether this knob may move the simulated timeline (seconds and
    /// energy). Only the broad phase does: skipped tiles cost no raster
    /// cycles.
    pub fn timeline_may_move(self) -> bool {
        self == Knob::BroadPhase
    }

    /// Whether an active governor must make this knob fully inert, so
    /// governed runs match on every counter and the timeline. Shedding
    /// owns the tile cursor, so the broad phase stands down.
    pub fn inert_under_governor(self) -> bool {
        self == Knob::BroadPhase
    }

    /// Times `pass` with [`time_pairs`], knob off as `a` and on as `b`,
    /// each on its own stack: `opts`' GPU configuration on the
    /// library-default policy with only this knob set, so a pass
    /// measures the knob and nothing else. `prepare` readies each stack
    /// once, untimed.
    pub fn time<P, T>(self, opts: &RunOptions, reps: usize, prepare: P, pass: T) -> PairTiming
    where
        P: Fn(&mut Simulator),
        T: Fn(&mut Simulator, &mut RbcdUnit) -> f64,
    {
        let isolated = RunOptions { gpu: opts.gpu.clone(), ..RunOptions::default() };
        let arm = |on| stack(&self.set(&isolated, on));
        let ((mut a_sim, mut a_unit), (mut b_sim, mut b_unit)) = (arm(false), arm(true));
        prepare(&mut a_sim);
        prepare(&mut b_sim);
        time_pairs(reps, || pass(&mut a_sim, &mut a_unit), || pass(&mut b_sim, &mut b_unit))
    }
}

/// The simulator and RBCD unit `opts` describes: its GPU configuration,
/// its frame policy, and a default unit on the same hot path.
fn stack(opts: &RunOptions) -> (Simulator, RbcdUnit) {
    let sim = SimulatorBuilder::from_config(opts.gpu.clone())
        .policy(opts.frame_policy())
        .build()
        .expect("benchmark GPU configurations are validated at construction");
    let cfg = RbcdConfig { hot_path: opts.gpu.hot_path, ..RbcdConfig::default() };
    let unit = RbcdUnit::new(cfg, opts.gpu.tile_size)
        .expect("benchmark RBCD configurations are validated at construction");
    (sim, unit)
}

/// The first key the two registries disagree on that `knob` may not
/// move (`inert` protects every key).
fn counter_diff(knob: Knob, inert: bool, a: &CounterSet, b: &CounterSet) -> Option<&'static str> {
    a.keys().chain(b.keys()).filter(|k| inert || !knob.may_move(k)).find(|k| a.get(k) != b.get(k))
}

/// What differs between two whole runs under `knob`'s row of the table.
fn run_diff(knob: Knob, inert: bool, a: &GpuRun, b: &GpuRun) -> Option<String> {
    if a.pairs != b.pairs {
        return Some("pairs".into());
    }
    if let Some(key) = counter_diff(knob, inert, &a.counters, &b.counters) {
        return Some(format!("counter {key}"));
    }
    let timeline_fixed = inert || !knob.timeline_may_move();
    (timeline_fixed && (a.seconds != b.seconds || a.energy_j != b.energy_j))
        .then(|| "timeline".into())
}

/// Every divergence one [`check`] found, one line each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergences(pub Vec<String>);

impl std::fmt::Display for Divergences {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.join("\n"))
    }
}

impl std::error::Error for Divergences {}

/// Runs every exactness leg for `knob`:
///
/// 1. **Threads/reuse/governor.** Each of `scenes` as whole runs, knob
///    off vs on, at 1 thread, at 2 and 4 threads with reuse, and at 2
///    threads under a budget deep in overload. Pairs, every counter the
///    table does not exempt, and the timeline (unless exempt) must
///    match; under the governor an inert knob must match on everything.
/// 2. **Fault cells.** `fault_scene` under the `storm` and `overflow`
///    presets at M = 2: every recovery statistic and every non-exempt
///    counter must match, cell for cell.
/// 3. **Batch vs solo.** With the knob and reuse on, `scenes` batched
///    at 2 workers must match each scene rendered solo: frame stats,
///    per-frame pairs, and unit counters.
///
/// Frames per run follow `opts.frames`, capped at each scene's length
/// (leg 1), at 4 (leg 2), and at 2 (leg 3).
///
/// # Errors
///
/// [`Divergences`], naming the leg, the scene, and what differed.
pub fn check(knob: Knob, opts: &RunOptions, scenes: &[Scene], fault_scene: &Scene) -> Result<(), Divergences> {
    let mut out = Vec::new();
    let budget = GovernorConfig { frame_budget_cycles: 25_000, ..GovernorConfig::default() };
    for scene in scenes {
        let frames = opts.frames.unwrap_or(scene.frames).min(scene.frames);
        let configs = [(1, false, false), (2, true, false), (4, true, false), (2, false, true)];
        for (threads, reuse, governed) in configs {
            let base = RunOptions { threads, reuse, governor: governed.then_some(budget), ..opts.clone() };
            let run = |on| run_gpu(scene, frames, &knob.set(&base, on), Some(RbcdConfig::default()));
            let inert = governed && knob.inert_under_governor();
            if let Some(what) = run_diff(knob, inert, &run(false), &run(true)) {
                let at = format!("{threads} threads, reuse {reuse}, governed {governed}");
                out.push(format!("{knob:?} divergence on {} ({at}): {what}", scene.alias));
            }
        }
    }

    // Fault storms corrupt draws every frame: fresh meshes and untrusted
    // bounds, the hard case for every cache and filter.
    let frames = Some(opts.frames.unwrap_or(4).min(4));
    let base = RunOptions { threads: 2, frames, ..opts.clone() };
    for preset in ["storm", "overflow"] {
        let plan = FaultPlan::preset(preset, 0xF207_7E4D).expect("preset exists");
        let scene = std::slice::from_ref(fault_scene);
        let run = |on| run_fault_tolerance(scene, preset, plan, &[2], &knob.set(&base, on));
        // One scene at one M: one cell and one registry per arm.
        let (a, b) = (run(false), run(true));
        let (sa, sb) = (&a.scenes[0], &b.scenes[0]);
        let what = (sa.cells != sb.cells).then(|| "recovery statistics".to_string()).or_else(|| {
            counter_diff(knob, false, &sa.counters[0], &sb.counters[0]).map(|k| format!("counter {k}"))
        });
        if let Some(what) = what {
            out.push(format!("{knob:?} divergence under '{preset}' faults on {}: {what}", sa.alias));
        }
    }

    // Per-session state (caches, broad-phase bounds, ZEB timing) must
    // behave exactly like each session running solo.
    let on = RunOptions { reuse: true, ..knob.set(opts, true) };
    let frames = opts.frames.unwrap_or(2).min(2);
    let mut solo: Vec<_> = scenes.iter().map(|_| stack(&on)).collect();
    let (mut sims, mut units): (Vec<_>, Vec<_>) = scenes.iter().map(|_| stack(&on)).unzip();
    for f in 0..frames {
        let traces: Vec<_> = scenes.iter().map(|s| s.frame_trace(f)).collect();
        units.iter_mut().for_each(RbcdUnit::new_frame);
        let mut jobs: Vec<BatchJob<'_, RbcdUnit>> = (sims.iter_mut().zip(units.iter_mut()).zip(&traces))
            .map(|((sim, backend), trace)| BatchJob { sim, backend, trace, mode: PipelineMode::Rbcd })
            .collect();
        let batched = render_batch(&mut jobs, 2).expect("batch jobs are well-formed");
        let sessions = batched.into_iter().zip(&mut units).zip(&mut solo).zip(&traces).zip(scenes);
        for ((((stats, unit), (solo_sim, solo_unit)), trace), scene) in sessions {
            solo_unit.new_frame();
            let alone = solo_sim.render_frame_parallel(trace, PipelineMode::Rbcd, solo_unit, 1);
            if frame_out(stats, unit) != frame_out(alone, solo_unit) {
                let what = format!("session {} frame {f} differs from its solo run", scene.alias);
                out.push(format!("{knob:?} divergence in batch service: {what}"));
            }
        }
    }
    if out.is_empty() { Ok(()) } else { Err(Divergences(out)) }
}

/// One rendered frame as the batch leg compares it: its stats, the
/// pairs it reported, and the unit's running counters.
fn frame_out(stats: FrameStats, unit: &mut RbcdUnit) -> (FrameStats, BTreeSet<ObjectPair>, RbcdStats) {
    let pairs = unit.take_contacts().iter().map(|c| c.object_pair()).collect();
    (stats, pairs, *unit.stats())
}

/// What [`time_pairs`] measured, in seconds per pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTiming {
    /// Fastest `a` pass.
    pub a_min: f64,
    /// Fastest `b` pass.
    pub b_min: f64,
    /// Median of the per-pair `a / b` ratios: the speedup of `b`.
    pub speedup: f64,
}

/// Times `a` against `b`, each a closure returning the seconds one pass
/// took: one warm-up pair (lazy allocations bill neither side, caches
/// reach their steady state), then `reps` interleaved pairs, `a` first
/// in each. Each pair shares the same instantaneous machine state
/// (frequency phases, hypervisor steal), so its ratio cancels
/// common-mode noise.
///
/// # Panics
///
/// If `reps` is zero or a pass returns NaN.
pub fn time_pairs(reps: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> PairTiming {
    assert!(reps > 0, "time_pairs needs at least one timed pair");
    let _warm_up = (a(), b());
    let (mut a_min, mut b_min) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (ta, tb) = (a(), b());
        a_min = a_min.min(ta);
        b_min = b_min.min(tb);
        ratios.push(ta / tb.max(1e-12));
    }
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("pass ratios are finite"));
    let mid = ratios.len() / 2;
    let speedup = if reps % 2 == 1 { ratios[mid] } else { (ratios[mid - 1] + ratios[mid]) / 2.0 };
    PairTiming { a_min, b_min, speedup }
}

/// One JSON member: a key and its value, already rendered as JSON text.
pub type Field = (&'static str, String);

/// `s` as a JSON string literal (scene aliases and viewports need no
/// escaping).
pub fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// `opts`' viewport as the artifacts record it (`"800x480"`).
pub fn viewport(opts: &RunOptions) -> String {
    quoted(&format!("{}x{}", opts.gpu.viewport.width, opts.gpu.viewport.height))
}

/// `members` as a one-line JSON object.
fn object(members: &[Field]) -> String {
    let members: Vec<String> = members.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", members.join(", "))
}

/// `rows` as a list nested in a per-scene row: one object per line,
/// closing on the row's indent.
pub fn nested(rows: &[Vec<Field>]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("      {}", object(r))).collect();
    format!("[\n{}\n    ]", rows.join(",\n"))
}

/// Writes a per-scene artifact to `path`: `header` (from
/// [`schema::header`]), `fields` in order, then `list` with one object
/// per scene row. Prints `wrote <path>` once it landed.
///
/// # Errors
///
/// The [`schema::write`] error: the document failed validation or the
/// write failed.
pub fn write_artifact(
    path: &str, header: String, fields: &[Field], list: &str, rows: &[Vec<Field>],
) -> Result<(), SchemaError> {
    let mut json = header;
    for (key, value) in fields {
        json.push_str(&format!("  \"{key}\": {value},\n"));
    }
    let rows: Vec<String> = rows.iter().map(|r| format!("    {}", object(r))).collect();
    json.push_str(&format!("  \"{list}\": [\n{}\n  ]\n}}\n", rows.join(",\n")));
    schema::write(path, &json)?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::{CacheStats, GeometryStats, GovernorStats, RasterStats};
    use std::cell::RefCell;

    const ALL: [Knob; 3] = [Knob::HotPath, Knob::Frontend, Knob::BroadPhase];

    /// A pass closure that returns `times` in order and logs `tag`.
    fn scripted<'a>(tag: char, times: &'a [f64], log: &'a RefCell<Vec<char>>) -> impl FnMut() -> f64 + 'a {
        let mut next = times.iter();
        move || {
            log.borrow_mut().push(tag);
            *next.next().expect("script long enough")
        }
    }

    #[test]
    fn time_pairs_takes_the_odd_median_and_per_side_minima() {
        let log = RefCell::new(Vec::new());
        // The warm-up pair (0.001 vs 100.0) is the fastest `a` and the
        // most extreme ratio; it must count for neither.
        let a = [0.001, 6.0, 3.0, 8.0];
        let b = [100.0, 2.0, 3.0, 1.0];
        let t = time_pairs(3, scripted('a', &a, &log), scripted('b', &b, &log));
        assert_eq!(t.a_min, 3.0);
        assert_eq!(t.b_min, 1.0);
        // ratios 3, 1, 8 → median 3
        assert_eq!(t.speedup, 3.0);
        assert_eq!(*log.borrow(), ['a', 'b', 'a', 'b', 'a', 'b', 'a', 'b']);
    }

    #[test]
    fn time_pairs_averages_the_even_median() {
        let log = RefCell::new(Vec::new());
        let a = [1.0, 2.0, 4.0, 9.0, 1.0];
        let b = [1.0, 1.0, 1.0, 1.0, 1.0];
        let t = time_pairs(4, scripted('a', &a, &log), scripted('b', &b, &log));
        // ratios 2, 4, 9, 1 → sorted 1, 2, 4, 9 → (2 + 4) / 2
        assert_eq!(t.speedup, 3.0);
        assert_eq!(t.a_min, 1.0);
        assert_eq!(log.borrow().len(), 10);
    }

    /// Every key of the unified counter registry.
    fn registry() -> Vec<&'static str> {
        let mut keys: Vec<_> = FrameStats::default().counter_set().keys().collect();
        keys.extend(RbcdStats::default().counter_set().keys());
        keys
    }

    #[test]
    fn no_knob_may_move_rbcd_or_governor_counters() {
        for knob in ALL {
            for key in registry() {
                if key.starts_with("rbcd.") || key.starts_with("governor.") {
                    assert!(!knob.may_move(key), "{knob:?} must not move {key}");
                }
            }
        }
    }

    /// The registry keys `knob` may move, sorted.
    fn exempt(knob: Knob) -> BTreeSet<&'static str> {
        registry().into_iter().filter(|k| knob.may_move(k)).collect()
    }

    #[test]
    fn hot_path_exempts_exactly_the_mask_only_keys() {
        assert_eq!(exempt(Knob::HotPath), BTreeSet::from(HOT_PATH_KEYS));
    }

    #[test]
    fn frontend_exempts_exactly_the_geom_keys() {
        let geom: BTreeSet<_> = registry().into_iter().filter(|k| k.starts_with("geom.")).collect();
        assert!(!geom.is_empty(), "the registry carries geom.* keys");
        assert_eq!(exempt(Knob::Frontend), geom);
    }

    #[test]
    fn broadphase_protects_the_identical_by_construction_raster_counts() {
        for key in [
            "raster.tiles_processed",
            "raster.primitives_fetched",
            "raster.fragments_collisionable",
            "raster.tile_cache_load_accesses",
            "raster.tile_cache_load_misses",
        ] {
            assert!(!Knob::BroadPhase.may_move(key), "broad phase must not move {key}");
        }
        let registry = registry();
        for key in IMAGE_SIDE_RASTER_KEYS {
            assert!(registry.contains(&key), "{key} is not a registry key");
            assert!(Knob::BroadPhase.may_move(key));
        }
    }

    #[test]
    fn only_the_broad_phase_moves_the_timeline_or_stands_down_under_a_governor() {
        for knob in ALL {
            assert_eq!(knob.timeline_may_move(), knob == Knob::BroadPhase, "{knob:?}");
            assert_eq!(knob.inert_under_governor(), knob == Knob::BroadPhase, "{knob:?}");
        }
    }

    /// A `FrameStats` with every field nonzero and distinct.
    fn every_field_set() -> FrameStats {
        let mut n = 0u64;
        let mut next = || {
            n += 1;
            n
        };
        let mut cache = || CacheStats {
            read_accesses: next(),
            read_misses: next(),
            write_accesses: next(),
            write_misses: next(),
        };
        let (tile_cache_stores, vertex_cache, tile_cache_loads) = (cache(), cache(), cache());
        let geometry = GeometryStats {
            vertices_shaded: next(),
            triangles_assembled: next(),
            triangles_clipped_out: next(),
            triangles_after_clip: next(),
            triangles_culled: next(),
            triangles_tagged: next(),
            triangles_degenerate: next(),
            draws_quarantined: next(),
            bin_entries: next(),
            prim_records: next(),
            tile_cache_stores,
            vertex_cache,
            vp_busy_cycles: next(),
            cycles: next(),
            reuse_draws: next(),
            shaded_draws: next(),
            bin_splices: next(),
        };
        let raster = RasterStats {
            tiles_processed: next(),
            primitives_fetched: next(),
            tile_cache_loads,
            fragments_rasterized: next(),
            fragments_collisionable: next(),
            fragments_to_early_z: next(),
            fragments_shaded: next(),
            pixels_covered: next(),
            rows_empty: next(),
            rows_full: next(),
            fp_busy_cycles: next(),
            fp_idle_cycles: next(),
            zeb_stall_cycles: next(),
            cycles: next(),
        };
        let coherence = CoherenceStats {
            draw_hashes: next(),
            signature_cycles: next(),
            tiles_checked: next(),
            tiles_reused: next(),
        };
        let governor = GovernorStats {
            breaker_trips: next(),
            budget_cycles: next(),
            stale_pairs: next(),
            tiles_coarsened: next(),
            tiles_shed: next(),
        };
        let broadphase = BroadphaseStats {
            objects_swept: next(),
            objects_infeasible: next(),
            sweep_cycles: next(),
            tiles_skipped: next(),
        };
        FrameStats { geometry, raster, coherence, governor, broadphase, frames: next() }
    }

    #[test]
    fn masked_zeroes_exactly_the_keys_each_knob_may_move() {
        let full = every_field_set().counter_set();
        for (key, value) in full.iter() {
            assert_ne!(value, 0, "{key} must start nonzero");
        }
        for knob in ALL {
            let masked = knob.masked(every_field_set()).counter_set();
            for (key, value) in full.iter() {
                let want = if knob.may_move(key) { 0 } else { value };
                assert_eq!(masked.get(key), want, "{knob:?}: {key}");
            }
        }
    }

    #[test]
    fn set_toggles_only_its_own_knob() {
        let base = RunOptions::default();
        let on = Knob::Frontend.set(&base, true);
        assert_eq!(on.frontend, FrontendMode::Incremental);
        assert_eq!(on.broadphase, base.broadphase);
        assert_eq!(on.gpu.hot_path, base.gpu.hot_path);
        assert_eq!(Knob::HotPath.set(&base, false).gpu.hot_path, HotPathMode::Reference);
        assert_eq!(Knob::BroadPhase.set(&base, true).broadphase, BroadPhase::On);
    }
}

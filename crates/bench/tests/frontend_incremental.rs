//! Satellite check: the incremental geometry front-end is bit-identical
//! to the full-rebuild front-end under adversarial conditions.
//!
//! Random motion scripts (seeded, so failures replay) hold some objects
//! still — the cache-hit path — and move others — the invalidation
//! path — while the matrix sweeps worker threads, fault-storm and
//! overflow presets, and an active governor budget. Per-frame
//! [`FrameStats`], collision pairs, and derived counters must match the
//! rebuild run bit for bit; only the accounting-only `geom.*` counters
//! may differ. The rebuild front-end itself must be thread-count
//! invariant (it shades every draw on the pool at more than one
//! worker) and must never touch the cache. A further arm pins the
//! bounded cache: evicting down to a tiny capacity must change reuse
//! rates, never results.

use rbcd_bench::ab::Knob;
use rbcd_core::{FaultPlan, ObjectPair, RbcdConfig, RbcdUnit};
use rbcd_geometry::shapes;
use rbcd_gpu::{
    Camera, DrawCommand, FramePolicy, FrameStats, FrameTrace, FrontendMode, GovernorConfig,
    GpuConfig, ObjectId, PipelineMode, SimulatorBuilder,
};
use rbcd_math::{Mat4, Rng, Vec3, Viewport};
use std::collections::BTreeSet;

fn cfg() -> GpuConfig {
    GpuConfig { viewport: Viewport::new(192, 128), ..GpuConfig::default() }
}

/// A seeded random motion script: a fixed cast of draws (meshes shared
/// across frames, as a real engine would submit them) whose positions
/// either hold — exercising the cache-hit path — or take a random step
/// — exercising invalidation. Returns one `FrameTrace` per frame.
fn random_script(seed: u64, frames: usize) -> Vec<FrameTrace> {
    let mut rng = Rng::seed_from_u64(seed);
    let camera = Camera::perspective(Vec3::new(0.0, 1.0, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
    let base: Vec<DrawCommand> = vec![
        DrawCommand::scenery(shapes::ground_quad(16.0, 16.0)),
        DrawCommand::collidable(shapes::cube(1.0), ObjectId::new(1)),
        DrawCommand::collidable(shapes::cube(0.8), ObjectId::new(2)),
        DrawCommand::collidable(shapes::icosphere(0.8, 2), ObjectId::new(3)),
        DrawCommand::collidable(shapes::uv_sphere(0.7, 10, 8), ObjectId::new(4)),
        DrawCommand::scenery(shapes::uv_sphere(1.2, 10, 8)),
    ];
    let mut pos: Vec<Vec3> = (0..base.len())
        .map(|_| {
            Vec3::new(
                rng.gen_range(-2.0f32..2.0),
                rng.gen_range(-1.0f32..1.0),
                rng.gen_range(-1.0f32..1.0),
            )
        })
        .collect();
    pos[0] = Vec3::new(0.0, -1.5, 0.0); // the ground stays the ground
    (0..frames)
        .map(|_| {
            for (i, p) in pos.iter_mut().enumerate() {
                if i > 0 && rng.gen_bool(0.5) {
                    *p = Vec3::new(
                        p.x + rng.gen_range(-0.3f32..0.3),
                        p.y + rng.gen_range(-0.3f32..0.3),
                        p.z + rng.gen_range(-0.3f32..0.3),
                    );
                }
            }
            FrameTrace::new(
                camera,
                base.iter()
                    .zip(&pos)
                    .map(|(d, &p)| d.clone().with_model(Mat4::translation(p)))
                    .collect(),
            )
        })
        .collect()
}

/// Renders a script end to end, returning per-frame stats and the
/// accumulated pair set. Faults corrupt each frame's trace on the way
/// in (same plan, same frame index → same corruption for both
/// front-ends).
fn run_script(
    script: &[FrameTrace],
    frontend: FrontendMode,
    threads: usize,
    reuse: bool,
    faults: Option<&FaultPlan>,
    governor: Option<GovernorConfig>,
) -> (Vec<FrameStats>, BTreeSet<ObjectPair>) {
    let mut sim = SimulatorBuilder::from_config(cfg())
        .policy(
            FramePolicy::new()
                .with_workers(threads)
                .with_reuse(reuse)
                .with_frontend(frontend)
                .with_governor(governor),
        )
        .build()
        .expect("test configuration is valid");
    let mut unit = RbcdUnit::new(RbcdConfig::default(), cfg().tile_size)
        .expect("default RBCD configuration is valid");
    let mut frames = Vec::with_capacity(script.len());
    let mut pairs = BTreeSet::new();
    for (f, trace) in script.iter().enumerate() {
        unit.new_frame();
        let stats = match faults {
            Some(plan) => {
                let (corrupted, _log) = plan.apply(trace, f as u64);
                sim.render_frame_parallel(&corrupted, PipelineMode::Rbcd, &mut unit, threads)
            }
            None => sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, threads),
        };
        frames.push(stats);
        for c in unit.take_contacts() {
            pairs.insert(c.object_pair());
        }
    }
    (frames, pairs)
}

/// The fault presets each motion script runs under.
fn fault_plans() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("none", None),
        ("storm", Some(FaultPlan::preset("storm", 0xF0_5EED).unwrap())),
        ("overflow", Some(FaultPlan::preset("overflow", 0xF0_5EED).unwrap())),
    ]
}

#[test]
fn incremental_matches_rebuild_on_random_motion_scripts() {
    let frames = 4;
    for seed in [11u64, 42] {
        let script = random_script(seed, frames);
        for (fname, plan) in &fault_plans() {
            for reuse in [false, true] {
                let (base, base_pairs) =
                    run_script(&script, FrontendMode::Rebuild, 1, reuse, plan.as_ref(), None);
                for threads in [1, 2, 4] {
                    let (inc, inc_pairs) = run_script(
                        &script,
                        FrontendMode::Incremental,
                        threads,
                        reuse,
                        plan.as_ref(),
                        None,
                    );
                    let tag =
                        format!("seed {seed}, faults {fname}, reuse {reuse}, {threads} threads");
                    assert_eq!(base_pairs, inc_pairs, "{tag}: pair set diverged");
                    assert_eq!(base.len(), inc.len());
                    for (f, (a, b)) in base.iter().zip(&inc).enumerate() {
                        assert_eq!(
                            *a,
                            Knob::Frontend.masked(*b),
                            "{tag}: frame {f} FrameStats diverged"
                        );
                    }
                    let reused: u64 = inc.iter().map(|s| s.geometry.reuse_draws).sum();
                    assert!(
                        reused > 0,
                        "{tag}: motion scripts hold objects, so some draw must hit the cache"
                    );
                }
            }
        }
    }
}

/// With more than one worker, `Rebuild` misses every draw and so
/// always shades on the pool: it must match its own 1-worker run.
#[test]
fn rebuild_matches_itself_across_thread_counts() {
    for seed in [11u64, 42] {
        let script = random_script(seed, 4);
        for (fname, plan) in &fault_plans() {
            let (base, base_pairs) =
                run_script(&script, FrontendMode::Rebuild, 1, false, plan.as_ref(), None);
            for threads in [2, 4] {
                let (pooled, pooled_pairs) =
                    run_script(&script, FrontendMode::Rebuild, threads, false, plan.as_ref(), None);
                let tag = format!("seed {seed}, faults {fname}, {threads} threads");
                assert_eq!(base_pairs, pooled_pairs, "{tag}: pair set diverged");
                assert_eq!(base, pooled, "{tag}: FrameStats diverged");
            }
        }
    }
}

/// `Rebuild` bypasses the geometry cache: it never fills it, and every
/// `geom.*` counter reads 0 — also right after switching away from a
/// warm incremental front-end, whose cache the switch drops.
#[test]
fn rebuild_never_touches_the_geometry_cache() {
    let script = random_script(5, 6);
    for threads in [1, 2] {
        let mut sim = SimulatorBuilder::from_config(cfg())
            .policy(FramePolicy::new().with_frontend(FrontendMode::Incremental))
            .build()
            .unwrap();
        let mut unit = RbcdUnit::new(RbcdConfig::default(), cfg().tile_size).unwrap();
        let (warm, rest) = script.split_at(2);
        for trace in warm {
            unit.new_frame();
            sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, threads);
        }
        assert!(sim.geom_cache_len() > 0, "the incremental frames fill the cache");
        sim.set_frontend(FrontendMode::Rebuild);
        for (f, trace) in rest.iter().enumerate() {
            unit.new_frame();
            let stats = sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, threads);
            let tag = format!("{threads} threads, rebuild frame {f}");
            assert_eq!(sim.geom_cache_len(), 0, "{tag}: cache holds draws");
            let counters = stats.counter_set();
            let geom: Vec<_> = counters.iter().filter(|(k, _)| k.starts_with("geom.")).collect();
            assert_eq!(geom.len(), 3, "{tag}: the registry carries three geom.* keys");
            assert!(geom.iter().all(|&(_, v)| v == 0), "{tag}: {geom:?}");
        }
    }
}

#[test]
fn incremental_matches_rebuild_under_a_governed_budget() {
    let script = random_script(7, 4);
    // Probe the ungoverned timeline, then budget half of it per frame:
    // deep enough into overload that tiles are shed and the policy
    // ladder (forced reuse included) actually engages.
    let (probe, _) = run_script(&script, FrontendMode::Rebuild, 1, false, None, None);
    let per_frame: u64 =
        probe.iter().map(|s| s.raster.cycles).sum::<u64>() / probe.len() as u64 / 2;
    let gov = GovernorConfig { frame_budget_cycles: per_frame.max(1), ..GovernorConfig::default() };
    let (base, base_pairs) = run_script(&script, FrontendMode::Rebuild, 1, false, None, Some(gov));
    assert!(
        base.iter().map(|s| s.governor.tiles_shed).sum::<u64>() > 0,
        "a half budget must shed tiles, or this arm only covers the idle path"
    );
    for threads in [1, 2, 4] {
        let (inc, inc_pairs) =
            run_script(&script, FrontendMode::Incremental, threads, false, None, Some(gov));
        assert_eq!(base_pairs, inc_pairs, "governed pairs at {threads} threads");
        for (f, (a, b)) in base.iter().zip(&inc).enumerate() {
            assert_eq!(
                *a,
                Knob::Frontend.masked(*b),
                "governed frame {f} diverged at {threads} threads"
            );
        }
    }
}

/// Renders a script on one incremental-front-end simulator whose
/// geometry cache is bounded to `capacity` draws, checking the bound
/// after every frame.
fn run_capped(script: &[FrameTrace], capacity: usize) -> (Vec<FrameStats>, BTreeSet<ObjectPair>) {
    let mut sim = SimulatorBuilder::from_config(cfg())
        .policy(FramePolicy::new().with_frontend(FrontendMode::Incremental))
        .build()
        .unwrap();
    sim.set_geom_cache_capacity(capacity);
    let mut unit = RbcdUnit::new(RbcdConfig::default(), cfg().tile_size).unwrap();
    let mut frames = Vec::new();
    let mut pairs = BTreeSet::new();
    for trace in script {
        unit.new_frame();
        frames.push(sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, 1));
        for c in unit.take_contacts() {
            pairs.insert(c.object_pair());
        }
        assert!(sim.geom_cache_len() <= capacity, "cache exceeded its bound");
    }
    (frames, pairs)
}

#[test]
fn bounded_cache_evicts_without_changing_results() {
    let script = random_script(23, 4);
    let (base, base_pairs) = run_script(&script, FrontendMode::Rebuild, 1, false, None, None);
    let (roomy, roomy_pairs) = run_capped(&script, 64);
    let (tiny, tiny_pairs) = run_capped(&script, 2);
    for (f, (a, b)) in base.iter().zip(&roomy).enumerate() {
        assert_eq!(*a, Knob::Frontend.masked(*b), "roomy cache diverged at frame {f}");
    }
    for (f, (a, b)) in base.iter().zip(&tiny).enumerate() {
        assert_eq!(*a, Knob::Frontend.masked(*b), "tiny cache diverged at frame {f}");
    }
    assert_eq!(base_pairs, roomy_pairs);
    assert_eq!(base_pairs, tiny_pairs);
    // Two entries cannot hold a six-draw cast: eviction must cost
    // reuse — that it costs nothing else is the point of this test.
    let reused = |frames: &[FrameStats]| frames.iter().map(|s| s.geometry.reuse_draws).sum::<u64>();
    assert!(reused(&roomy) > reused(&tiny), "eviction must reduce the reuse rate");
    assert!(
        tiny.iter().map(|s| s.geometry.shaded_draws).sum::<u64>()
            > roomy.iter().map(|s| s.geometry.shaded_draws).sum::<u64>(),
        "evicted draws must be re-shaded"
    );
}

/// Pins which draw each eviction removes: per-frame `(reuse_draws,
/// shaded_draws)` over `random_script(11, 8)` at bounded capacities.
/// Below the six-draw cast's size, every frame's hit/miss split depends
/// on the exact victim sequence: evicting in insertion order instead of
/// recency order, for one, moves the capacity-5 row from frame 2 on.
#[test]
fn eviction_accounting_matches_goldens() {
    let goldens: [(usize, [(u64, u64); 8]); 3] = [
        (2, [(0, 6), (2, 4), (1, 5), (1, 5), (2, 4), (1, 5), (2, 4), (1, 5)]),
        (3, [(0, 6), (2, 4), (1, 5), (2, 4), (2, 4), (2, 4), (2, 4), (2, 4)]),
        (5, [(0, 6), (4, 2), (4, 2), (2, 4), (3, 3), (4, 2), (4, 2), (3, 3)]),
    ];
    let script = random_script(11, 8);
    for (capacity, golden) in goldens {
        let (frames, _) = run_capped(&script, capacity);
        let accounting: Vec<(u64, u64)> =
            frames.iter().map(|s| (s.geometry.reuse_draws, s.geometry.shaded_draws)).collect();
        assert_eq!(
            accounting, golden,
            "capacity {capacity}: per-frame (reuse_draws, shaded_draws) moved"
        );
    }
}

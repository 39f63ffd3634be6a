//! Bit-identical equivalence of sequential and parallel frame execution
//! with the real RBCD hardware model attached.
//!
//! `render_frame` is the 1-worker run of the tile pipeline;
//! `render_frame_parallel` must produce exactly the same collision
//! pairs, contact list (including order), RBCD stats, and GPU frame
//! stats for any thread count.

use rbcd_core::{RbcdConfig, RbcdUnit};
use rbcd_geometry::shapes;
use rbcd_gpu::{
    Camera, DrawCommand, FrameTrace, GpuConfig, ObjectId, PipelineMode, Simulator,
};
use rbcd_math::{Mat4, Vec3, Viewport};

fn colliding_trace() -> FrameTrace {
    let camera = Camera::perspective(Vec3::new(0.0, 0.5, 7.0), Vec3::ZERO, 1.0, 0.1, 100.0);
    let mut draws = vec![DrawCommand::scenery(shapes::ground_quad(12.0, 12.0))
        .with_model(Mat4::translation(Vec3::new(0.0, -1.2, 0.0)))];
    // A cluster of interpenetrating objects plus separated bystanders.
    let positions = [
        (Vec3::new(0.0, 0.0, 0.0), 1u16),
        (Vec3::new(0.7, 0.1, 0.2), 2),
        (Vec3::new(-0.6, -0.1, -0.3), 3),
        (Vec3::new(3.0, 0.0, 0.0), 4),
        (Vec3::new(-3.0, 0.5, 1.0), 5),
    ];
    for (pos, id) in positions {
        let shape =
            if id % 2 == 0 { shapes::uv_sphere(0.8, 10, 10) } else { shapes::cube(1.2) };
        draws.push(
            DrawCommand::collidable(shape, ObjectId::new(id)).with_model(Mat4::translation(pos)),
        );
    }
    FrameTrace::new(camera, draws)
}

fn gpu_config() -> GpuConfig {
    GpuConfig { viewport: Viewport::new(160, 120), ..GpuConfig::default() }
}

/// One frame in RBCD and collision-only mode: frame stats, pairs,
/// contact order, RBCD stats and the per-tile log agree at any thread
/// count, and tile logging changes no result.
#[test]
fn parallel_rbcd_frame_is_bit_identical() {
    let trace = colliding_trace();
    let run = |mode, threads: Option<usize>, logging: bool| {
        let mut sim = Simulator::new(gpu_config());
        let mut unit = RbcdUnit::new(RbcdConfig::default(), gpu_config().tile_size).unwrap();
        unit.set_tile_logging(logging);
        let stats = match threads {
            None => sim.render_frame(&trace, mode, &mut unit),
            Some(threads) => sim.render_frame_parallel(&trace, mode, &mut unit, threads),
        };
        let log = unit.take_tile_records();
        assert!(unit.take_tile_records().is_empty(), "a take drains the log");
        (stats, unit.pairs(), unit.contacts().to_vec(), *unit.stats(), log)
    };
    for mode in [PipelineMode::Rbcd, PipelineMode::CollisionOnly] {
        let seq = run(mode, None, true);
        assert!(!seq.1.is_empty(), "scene must actually collide for the test to be meaningful");
        assert!(
            seq.4.iter().any(|r| r.insertions > 0 && r.scan_end > r.scan_start),
            "{mode:?}: scanned tiles are logged"
        );
        let unlogged = run(mode, None, false);
        assert!(unlogged.4.is_empty(), "{mode:?}: logging off records nothing");
        assert_eq!(
            (seq.0, &seq.1, &seq.2, seq.3),
            (unlogged.0, &unlogged.1, &unlogged.2, unlogged.3),
            "{mode:?}: logging changed a result"
        );
        for threads in [1, 2, 4, 8] {
            let par = run(mode, Some(threads), true);
            assert_eq!(seq.0, par.0, "FrameStats diverged at {threads} threads");
            assert_eq!(seq.1, par.1, "pairs at {threads} threads");
            assert_eq!(seq.2, par.2, "contact order at {threads} threads");
            assert_eq!(seq.3, par.3, "RbcdStats at {threads} threads");
            assert_eq!(seq.4, par.4, "tile log at {threads} threads");
        }
    }
}

#[test]
fn parallel_rbcd_multi_frame_warm_state_matches() {
    // Timing state (zeb_free_at / scan_unit_free_at) carries across
    // frames when no `new_frame` intervenes; replaying three frames
    // must stay identical throughout, and again after a reset.
    let trace = colliding_trace();
    for threads in [2, 4, 8] {
        let mut seq_sim = Simulator::new(gpu_config());
        let mut seq_unit = RbcdUnit::new(RbcdConfig::default(), gpu_config().tile_size).unwrap();
        let mut par_sim = Simulator::new(gpu_config());
        let mut par_unit = RbcdUnit::new(RbcdConfig::default(), gpu_config().tile_size).unwrap();
        for frame in 0..6 {
            let seq_stats = seq_sim.render_frame(&trace, PipelineMode::Rbcd, &mut seq_unit);
            let par_stats =
                par_sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut par_unit, threads);
            let tag = format!("{threads} threads, frame {frame}");
            assert_eq!(seq_stats, par_stats, "{tag}");
            assert_eq!(seq_unit.stats(), par_unit.stats(), "{tag}");
            assert_eq!(seq_unit.contacts(), par_unit.contacts(), "{tag}");
            assert_eq!(seq_unit.pairs(), par_unit.pairs(), "{tag}");
            if frame == 2 {
                seq_unit.new_frame();
                par_unit.new_frame();
            }
        }
    }
}

#[test]
fn parallel_oracle_matches_sequential_oracle() {
    use rbcd_core::software::OracleUnit;
    let trace = colliding_trace();
    let mut seq_sim = Simulator::new(gpu_config());
    let mut seq_unit = OracleUnit::new();
    seq_sim.render_frame(&trace, PipelineMode::Rbcd, &mut seq_unit);
    assert!(seq_unit.pairs().len() >= 2 && seq_unit.covered_pixels() > 0);
    for threads in [2, 4, 8] {
        let mut par_sim = Simulator::new(gpu_config());
        let mut par_unit = OracleUnit::new();
        par_sim.render_frame_parallel(&trace, PipelineMode::Rbcd, &mut par_unit, threads);
        assert_eq!(seq_unit.pairs(), par_unit.pairs(), "{threads} threads");
        assert_eq!(seq_unit.covered_pixels(), par_unit.covered_pixels(), "{threads} threads");
    }
}

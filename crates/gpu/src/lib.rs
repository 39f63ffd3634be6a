//! A tile-based-rendering (TBR) mobile GPU simulator in the style of the
//! ARM Mali-400 MP (Utgard), the baseline of the RBCD paper (§3.1), with
//! throughput/latency timing and per-event energy accounting.
//!
//! The simulator executes [`FrameTrace`]s — lists of [`DrawCommand`]s plus
//! a camera — through two decoupled pipelines:
//!
//! * the **Geometry Pipeline**: vertex processing, primitive assembly,
//!   near-plane clipping, face culling, and per-tile binning via the
//!   Polygon List Builder into the Tile Cache;
//! * the **Raster Pipeline**: per tile, the Tile Fetcher reads binned
//!   primitives, the Rasterizer scan-converts them at 4 fragments/cycle,
//!   the Early-Z test removes occluded fragments, and four Fragment
//!   Processors shade the survivors into on-chip colour/Z buffers.
//!
//! The RBCD unit itself lives in the `rbcd-core` crate and attaches to the
//! rasterizer through the [`ParallelCollision`] trait, mirroring the
//! paper's integration point (Figure 3): the rasterizer forwards every
//! *collisionable* fragment — including tagged-to-be-culled ones — to the
//! unit, while only non-culled fragments proceed to Early-Z.
//!
//! Every frame runs through one pipeline, [`render_batch`]: geometry,
//! then a plan / compute / merge split of the Raster Pipeline whose
//! compute phase may use worker threads. [`Simulator::render_frame`] and
//! [`Simulator::render_frame_parallel`] are one-job batches, so every
//! knob means the same thing at every entry point and results are
//! bit-identical at any thread count.
//!
//! Timing is throughput/latency-approximate rather than RTL-accurate: per
//! pipeline stage the simulator counts work items against the stage
//! throughputs of the paper's Table 1. The Fig. 3 handshake between the
//! Tile Scheduler and the Z-overlap scan is replayed in the merge phase:
//! each tile waits for the backend's `next_free` ZEB, `merge_tile`
//! claims it and serializes the tile's scan, and `idle_at` ends the
//! frame once the last scan drains. Energy is
//! `Σ events × per-event energy + leakage × cycles`, with the same
//! component itemisation the paper used with McPAT (§4.1).
//!
//! # Example
//!
//! ```
//! use rbcd_gpu::{Camera, DrawCommand, FrameTrace, GpuConfig, PipelineMode, Simulator};
//! use rbcd_geometry::shapes;
//! use rbcd_math::{Vec3, Viewport};
//!
//! let config = GpuConfig { viewport: Viewport::new(64, 64), ..GpuConfig::default() };
//! let mut sim = Simulator::new(config);
//! let camera = Camera::perspective(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 0.1, 100.0);
//! let trace = FrameTrace::new(camera, vec![DrawCommand::scenery(shapes::cube(1.0))]);
//! let stats = sim.render_frame(&trace, PipelineMode::Baseline, &mut rbcd_gpu::NullCollisionUnit);
//! assert!(stats.raster.fragments_rasterized > 0);
//! // The same frame over four worker threads: bit-identical.
//! let mut sim4 = Simulator::new(sim.config().clone());
//! let mut backend = rbcd_gpu::NullCollisionUnit;
//! let stats4 = sim4.render_frame_parallel(&trace, PipelineMode::Baseline, &mut backend, 4);
//! assert_eq!(stats, stats4);
//! ```

#![warn(missing_docs)]

mod broadphase;
mod builder;
mod cache;
mod clip;
mod coherence;
mod collision_unit;
mod command;
mod config;
pub mod energy;
mod frontend;
pub mod imr;
mod parallel;
mod policy;
mod raster;
mod service;
mod sim;
mod stats;

pub use broadphase::BroadPhase;
pub use builder::{GpuConfigError, SimulatorBuilder};
pub use cache::{CacheConfig, CacheModel, CacheStats};
pub use clip::clip_near;
pub use collision_unit::{CollisionFragment, NullCollisionUnit, TileCoord};
pub use command::{
    Camera, CullMode, DrawCommand, Facing, FrameTrace, ObjectId, SceneError, ShaderCost,
};
pub use config::{GovernorConfig, GpuConfig, HotPathMode};
pub use frontend::FrontendMode;
pub use imr::{ImrSimulator, ImrStats};
pub use parallel::ParallelCollision;
pub use policy::FramePolicy;
pub use raster::{
    rasterize_triangle_in_tile, rasterize_triangle_in_tile_masked,
    rasterize_triangle_in_tile_masked_rows, rasterize_triangle_in_tile_masked_sink, Fragment,
    MaskRasterOut, ScreenTriangle,
};
pub use service::{render_batch, BatchJob, ServiceError};
pub use sim::{GovernorFrameReport, PipelineMode, Simulator};
pub use stats::{
    BroadphaseStats, CoherenceStats, FrameStats, GeometryStats, GovernorStats, RasterStats,
};

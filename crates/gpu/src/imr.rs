//! Immediate-Mode Rendering (IMR) — the alternative to TBR (§3.1).
//!
//! IMR processes primitives in submission order against a *full-screen*
//! depth and colour buffer in system memory: there is no binning pass
//! and no on-chip tile buffer, so every fragment's depth test and every
//! colour write travels through the cache hierarchy to DRAM, and pixel
//! overdraw costs off-chip bandwidth instead of on-chip SRAM traffic.
//!
//! The paper leaves an RBCD-for-IMR implementation out of scope but
//! keeps "its implementation and requirements" in mind: the ZEB would
//! have to hold per-pixel lists for the *whole screen* in memory rather
//! than one tile in SRAM. [`ImrSimulator::rbcd_memory_requirements`]
//! quantifies that: the buffer alone is three orders of magnitude larger
//! than the paper's two 8 KB ZEBs, and every insertion becomes a
//! read-modify-write of a memory-resident list — which is exactly why
//! the unit is evaluated on a TBR baseline.

use crate::cache::CacheModel;
use crate::command::FrameTrace;
use crate::config::GpuConfig;
use crate::frontend::{shade_draw, CachedDrawGeom};
use crate::raster::{rasterize_triangle_in_tile, Fragment};
use crate::sim::PipelineMode;

/// Counters and timing of one IMR frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ImrStats {
    /// Vertices shaded.
    pub vertices_shaded: u64,
    /// Vertex-processor work cycles.
    pub vp_busy_cycles: u64,
    /// Triangles assembled.
    pub triangles_assembled: u64,
    /// Triangles culled.
    pub triangles_culled: u64,
    /// Fragments rasterized.
    pub fragments_rasterized: u64,
    /// Fragments passing the depth test (shaded).
    pub fragments_shaded: u64,
    /// Fragment-processor work cycles.
    pub fp_busy_cycles: u64,
    /// Overdraw: colour-buffer locations written more than once.
    pub overdraw_writes: u64,
    /// Bytes moved to/from DRAM for the depth and colour buffers.
    pub framebuffer_dram_bytes: u64,
    /// Total frame cycles.
    pub cycles: u64,
}

/// A minimal immediate-mode GPU simulator sharing the TBR simulator's
/// configuration, used to reproduce the TBR-vs-IMR bandwidth argument of
/// §3.1.
#[derive(Debug)]
pub struct ImrSimulator {
    config: GpuConfig,
    /// The L2 stands between the render-output unit and DRAM; the
    /// framebuffer working set (800×480×8 B ≈ 3 MB) far exceeds it.
    l2: CacheModel,
    zbuf: Vec<f32>,
    frag_scratch: Vec<Fragment>,
}

const ZBUF_BASE: u64 = 0x4000_0000;
const CBUF_BASE: u64 = 0x5000_0000;

impl ImrSimulator {
    /// Creates an IMR simulator for the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        let pixels = (config.viewport.width * config.viewport.height) as usize;
        Self {
            l2: CacheModel::new(config.l2_cache),
            zbuf: vec![1.0; pixels],
            frag_scratch: Vec::new(),
            config,
        }
    }

    /// Renders one frame in immediate mode.
    pub fn render_frame(&mut self, trace: &FrameTrace) -> ImrStats {
        let cfg = self.config.clone();
        let (vw, vh) = (cfg.viewport.width, cfg.viewport.height);
        let mut s = ImrStats::default();
        self.l2.reset_stats();
        self.zbuf.fill(1.0);
        let mut written = vec![false; (vw * vh) as usize];

        let view_proj = trace.camera.view_proj();
        let mut clip_scratch = Vec::new();
        let mut geom = CachedDrawGeom::default();
        for draw in &trace.draws {
            // The TBR front-end's per-draw shading, culling as a plain
            // renderer does. It drops triangles off the viewport, which
            // would rasterize to no fragments here anyway.
            shade_draw(draw, &view_proj, &cfg, PipelineMode::Baseline, &mut clip_scratch, &mut geom);
            s.vertices_shaded += geom.verts;
            s.vp_busy_cycles += geom.verts * draw.shader.vertex_cycles as u64;
            s.triangles_assembled += geom.tris_in;
            s.triangles_culled += geom.culled;
            for t in &geom.tris {
                self.frag_scratch.clear();
                // Immediate mode has no tiles: rasterize against the
                // whole viewport (modelled as one viewport-sized tile).
                let n =
                    rasterize_triangle_in_tile(&t.tri, 0, 0, vw.max(vh), vw, vh, &mut self.frag_scratch)
                        as u64;
                s.fragments_rasterized += n;
                for f in &self.frag_scratch {
                    let idx = (f.y * vw + f.x) as usize;
                    // Depth test: read (and on pass, write) the
                    // memory-resident Z-buffer through the L2.
                    self.l2.read(ZBUF_BASE + idx as u64 * 4);
                    if f.z < self.zbuf[idx] {
                        self.zbuf[idx] = f.z;
                        self.l2.write(ZBUF_BASE + idx as u64 * 4);
                        s.fragments_shaded += 1;
                        s.fp_busy_cycles += draw.shader.fragment_cycles as u64;
                        // Colour write to the memory-resident buffer.
                        self.l2.write(CBUF_BASE + idx as u64 * 4);
                        if written[idx] {
                            s.overdraw_writes += 1;
                        }
                        written[idx] = true;
                    }
                }
            }
        }

        // Every L2 miss is a DRAM line transfer.
        s.framebuffer_dram_bytes = self.l2.stats().misses() * cfg.l2_cache.line_bytes;

        // Timing: the same stage throughputs as the TBR model, but the
        // framebuffer traffic is on the critical path (no on-chip tile
        // buffers to absorb it) subject to the DRAM bandwidth.
        let vp = s.vp_busy_cycles / cfg.vertex_processors as u64;
        let pa = s.triangles_assembled / cfg.triangles_per_cycle as u64;
        let raster = s.fragments_rasterized.div_ceil(cfg.raster_frags_per_cycle as u64);
        let shade = s.fp_busy_cycles / cfg.fragment_processors as u64;
        let dram = s.framebuffer_dram_bytes / cfg.dram_bytes_per_cycle;
        s.cycles = vp.max(pa).max(raster).max(shade).max(dram);
        s
    }

    /// Memory a full-screen RBCD would need in IMR: one `m`-element list
    /// per *screen* pixel (versus one 16×16 tile on-chip in TBR).
    /// Returns `(bytes_imr, bytes_tbr_two_zebs)`.
    pub fn rbcd_memory_requirements(&self, m: usize) -> (u64, u64) {
        let screen_pixels =
            self.config.viewport.width as u64 * self.config.viewport.height as u64;
        let tile_pixels = self.config.tile_size as u64 * self.config.tile_size as u64;
        (screen_pixels * m as u64 * 4, 2 * tile_pixels * m as u64 * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Camera, DrawCommand};
    use crate::sim::Simulator;
    use crate::NullCollisionUnit;
    use rbcd_geometry::shapes;
    use rbcd_math::{Mat4, Vec3, Viewport};

    fn overdraw_trace() -> FrameTrace {
        let camera = Camera::perspective(Vec3::new(0.0, 0.0, 6.0), Vec3::ZERO, 1.0, 0.1, 100.0);
        // Back-to-front layers maximize overdraw.
        let layers = (0..4)
            .map(|i| {
                DrawCommand::scenery(
                    shapes::ground_quad(8.0, 8.0)
                        .transformed(&Mat4::rotation_x(std::f32::consts::FRAC_PI_2)),
                )
                .with_model(Mat4::translation(Vec3::new(0.0, 0.0, -3.0 + i as f32)))
            })
            .collect();
        FrameTrace::new(camera, layers)
    }

    #[test]
    fn imr_counts_overdraw() {
        let cfg = GpuConfig { viewport: Viewport::new(96, 96), ..GpuConfig::default() };
        let mut imr = ImrSimulator::new(cfg);
        let s = imr.render_frame(&overdraw_trace());
        assert!(s.fragments_rasterized > 0);
        // Back-to-front quads: later (nearer) layers overwrite earlier
        // pixels — substantial overdraw.
        assert!(s.overdraw_writes > s.fragments_shaded / 4, "{s:?}");
        assert!(s.framebuffer_dram_bytes > 0);
        assert!(s.cycles > 0);
    }

    #[test]
    fn imr_and_tbr_shade_equivalent_images() {
        let cfg = GpuConfig { viewport: Viewport::new(96, 96), ..GpuConfig::default() };
        let trace = overdraw_trace();
        let mut imr = ImrSimulator::new(cfg.clone());
        let i = imr.render_frame(&trace);
        let mut tbr = Simulator::new(cfg);
        let t = tbr.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        // Same rasterization: identical fragment and shade counts.
        assert_eq!(i.fragments_rasterized, t.raster.fragments_rasterized);
        assert_eq!(i.fragments_shaded, t.raster.fragments_shaded);
    }

    #[test]
    fn imr_moves_more_framebuffer_dram_than_tbr() {
        // TBR's pixel traffic is one colour flush per tile; IMR's depth
        // tests and overdraw all go through the L2 to DRAM.
        let cfg = GpuConfig { viewport: Viewport::new(160, 160), ..GpuConfig::default() };
        let trace = overdraw_trace();
        let mut imr = ImrSimulator::new(cfg.clone());
        let i = imr.render_frame(&trace);
        let mut tbr = Simulator::new(cfg.clone());
        let t = tbr.render_frame(&trace, PipelineMode::Baseline, &mut NullCollisionUnit);
        let tbr_pixel_bytes =
            t.raster.tiles_processed * (cfg.tile_size as u64 * cfg.tile_size as u64) * 4;
        assert!(
            i.framebuffer_dram_bytes > 2 * tbr_pixel_bytes,
            "IMR {} vs TBR {}",
            i.framebuffer_dram_bytes,
            tbr_pixel_bytes
        );
    }

    #[test]
    fn rbcd_in_imr_needs_screen_sized_buffers() {
        let cfg = GpuConfig::default(); // 800×480
        let imr = ImrSimulator::new(cfg);
        let (imr_bytes, tbr_bytes) = imr.rbcd_memory_requirements(8);
        assert_eq!(tbr_bytes, 2 * 8 * 1024); // two 8 KB ZEBs
        assert_eq!(imr_bytes, 800 * 480 * 8 * 4); // ~12 MB
        assert!(imr_bytes > 700 * tbr_bytes, "three orders of magnitude");
    }
}

//! Per-thread RBCD collision workers for the tile pipeline.
//!
//! [`rbcd_gpu::ParallelCollision`] splits collision detection into an
//! order-free compute half and an order-dependent merge half.
//! [`ZebTileWorker`] is the compute half for the hardware model: each
//! worker thread owns a private software ZEB + FF-Stack and produces an
//! owned [`TileCollisions`] per tile. [`RbcdUnit::merge_scanned_tile`]
//! is the merge half: called in tile-index order, it replays the ZEB
//! double-buffer claim and the Z-overlap unit's serialization.
//!
//! Per-tile results do not depend on which worker — or which thread —
//! ran the tile: every tile starts from a cleared ZEB and the FF-Stack
//! is cleared at each list scan. Only the *timing* couples tiles, and
//! that is replayed in order at merge, so a frame's results are
//! bit-identical at any thread count.

use crate::scan::FfStack;
use crate::software::OracleUnit;
use crate::stats::RbcdStats;
use crate::unit::{ladder_zeb_tile, ContactPoint, RbcdConfig, RbcdUnit};
use crate::zeb::Zeb;
use crate::ZebElement;
use rbcd_gpu::{CollisionFragment, ObjectId, ParallelCollision, TileCoord};

/// One worker thread's private collision state: a software ZEB and
/// FF-Stack, reused across the tiles the thread claims.
#[derive(Debug)]
pub struct ZebTileWorker {
    config: RbcdConfig,
    tile_size: u32,
    zeb: Zeb,
    stack: FfStack,
    pending: Vec<(u32, ZebElement)>,
}

/// Owned per-tile collision results, merged in tile order by
/// `RbcdUnit::merge_scanned_tile`.
#[derive(Debug, Clone, Default)]
pub struct TileCollisions {
    /// Contacts in occupancy (insertion-touch) order — the order the
    /// unit reports them in.
    pub contacts: Vec<ContactPoint>,
    /// The tile's isolated stats, including its `scan_cycles` (used to
    /// replay the scan-unit timing) and `tiles = 1`.
    pub stats: RbcdStats,
    /// Objects escalated to the CPU detector by ladder rung 3, in
    /// ascending id order.
    pub escalated: Vec<ObjectId>,
}

impl ZebTileWorker {
    /// Creates a worker owning one ZEB of `tile_size²` lists at the
    /// configured capacity, plus its FF-Stack.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized capacity; workers are only built from the
    /// already-validated config of an existing [`RbcdUnit`].
    pub fn new(config: RbcdConfig, tile_size: u32) -> Self {
        let lists = (tile_size * tile_size) as usize;
        Self {
            zeb: Zeb::with_spares(lists, config.list_capacity, config.spare_entries)
                .expect("worker mirrors a validated unit config"),
            stack: FfStack::new(config.ff_stack_capacity)
                .expect("worker mirrors a validated unit config"),
            pending: Vec::new(),
            config,
            tile_size,
        }
    }

    /// Inserts `frags` (in pipeline order) into the worker's ZEB and
    /// scans the tile, running the degradation ladder on overflow.
    pub fn process_tile(&mut self, tile: TileCoord, frags: &[CollisionFragment]) -> TileCollisions {
        self.process_tile_boosted(tile, frags, 0)
    }

    /// Like [`ZebTileWorker::process_tile`], but with the effective list
    /// capacity `M` boosted by `boost` doublings — the overload
    /// governor's scan-coarsening rung. A boosted tile skips the
    /// base-capacity passes an overflow storm would doom, trading the
    /// larger one-shot scan for the ladder's repeated rescans. `boost ==
    /// 0` is exactly `process_tile`.
    pub fn process_tile_boosted(
        &mut self,
        tile: TileCoord,
        frags: &[CollisionFragment],
        boost: u8,
    ) -> TileCollisions {
        let mut out = TileCollisions::default();
        out.stats.tiles = 1;
        let ts = self.tile_size;
        let (bx, by) = (tile.x * ts, tile.y * ts);
        self.pending.clear();
        self.pending.extend(frags.iter().map(|f| {
            ((f.y - by) * ts + (f.x - bx), ZebElement::new(f.z, f.object, f.facing))
        }));
        let mut boosted;
        let (zeb, stack, config) = if boost == 0 {
            (&mut self.zeb, &mut self.stack, self.config)
        } else {
            // The boosted geometry mirrors the ladder's own rescan rung:
            // the scan stack widens alongside the lists, preserving the
            // "stack capacity >= list capacity" soundness structure.
            let m = self.config.list_capacity.saturating_mul(1usize << (boost.min(24) as usize));
            boosted = (
                Zeb::with_spares((ts * ts) as usize, m, self.config.spare_entries)
                    .expect("boosted capacity is positive"),
                FfStack::new(m.max(self.config.ff_stack_capacity))
                    .expect("widened FF-Stack capacity is positive"),
            );
            (&mut boosted.0, &mut boosted.1, RbcdConfig { list_capacity: m, ..self.config })
        };
        out.stats.scan_cycles = ladder_zeb_tile(
            zeb,
            stack,
            &config,
            tile,
            ts,
            &self.pending,
            &mut out.stats,
            &mut out.contacts,
            &mut out.escalated,
        );
        out
    }
}

impl ParallelCollision for RbcdUnit {
    type Worker = ZebTileWorker;
    type TileOut = TileCollisions;

    fn make_worker(&self) -> Self::Worker {
        ZebTileWorker::new(*self.config(), self.tile_size())
    }

    fn process_tile(
        worker: &mut Self::Worker,
        tile: TileCoord,
        frags: &[CollisionFragment],
    ) -> Self::TileOut {
        worker.process_tile(tile, frags)
    }

    fn process_boosted_tile(
        worker: &mut Self::Worker,
        tile: TileCoord,
        frags: &[CollisionFragment],
        boost: u8,
    ) -> Self::TileOut {
        worker.process_tile_boosted(tile, frags, boost)
    }

    fn next_free(&self) -> u64 {
        RbcdUnit::next_free(self)
    }

    fn merge_tile(&mut self, tile: TileCoord, out: Self::TileOut, start: u64, end: u64) {
        self.merge_scanned_tile(tile, &out.stats, &out.contacts, &out.escalated, start, end);
    }

    fn replay_tile(&mut self, tile: TileCoord, out: Self::TileOut, start: u64, end: u64) {
        self.replay_scanned_tile(tile, &out.stats, &out.contacts, &out.escalated, start, end);
    }

    fn coherence_key(&self) -> u64 {
        // Every RbcdConfig field feeds the key: a cached tile result is
        // only valid under the exact unit configuration that produced
        // it (capacities change overflow behaviour, ladder knobs change
        // recovery, scan costs change the logged timing).
        let c = self.config();
        let mut h = 0x52_BC_D0_01u64;
        for v in [
            c.zeb_count as u64,
            c.list_capacity as u64,
            c.ff_stack_capacity as u64,
            c.scan_cycles_per_element,
            c.scan_cycles_per_list,
            c.spare_entries as u64,
            c.ladder_rescans as u64,
            c.ladder_cpu_fallback as u64,
            c.hot_path as u64,
        ] {
            h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        h
    }

    fn idle_at(&self) -> u64 {
        RbcdUnit::idle_at(self)
    }
}

/// The software oracle has no per-tile state or timing: workers copy
/// the fragments out and the merge replays them into the shared
/// pixel map in tile order (its results are order-insensitive anyway).
impl ParallelCollision for OracleUnit {
    type Worker = ();
    type TileOut = Vec<CollisionFragment>;

    fn make_worker(&self) -> Self::Worker {}

    fn process_tile(
        _worker: &mut Self::Worker,
        _tile: TileCoord,
        frags: &[CollisionFragment],
    ) -> Self::TileOut {
        frags.to_vec()
    }

    fn next_free(&self) -> u64 {
        0
    }

    fn merge_tile(&mut self, _tile: TileCoord, out: Self::TileOut, _start: u64, _end: u64) {
        for frag in out {
            self.add_fragment(frag);
        }
    }

    fn idle_at(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcd_gpu::Facing;

    fn frag(x: u32, y: u32, z: f32, id: u16, facing: Facing) -> CollisionFragment {
        CollisionFragment { x, y, z, object: ObjectId::new(id), facing }
    }

    fn tile_frags(tile: TileCoord, tile_size: u32) -> Vec<CollisionFragment> {
        let (bx, by) = (tile.x * tile_size, tile.y * tile_size);
        vec![
            frag(bx + 3, by + 4, 0.10, 1, Facing::Front),
            frag(bx + 3, by + 4, 0.20, 2, Facing::Front),
            frag(bx + 3, by + 4, 0.30, 1, Facing::Back),
            frag(bx + 3, by + 4, 0.40, 2, Facing::Back),
            frag(bx + 9, by + 1, 0.50, 1, Facing::Front),
            frag(bx + 9, by + 1, 0.60, 1, Facing::Back),
        ]
    }

    /// Merges `tiles` in order, each raster pass 40 cycles long, and
    /// returns the unit with the dispatch bounds. With `interleaved`,
    /// one worker computes each tile just before its merge (the
    /// sequential order); otherwise each tile gets a fresh worker and
    /// all are computed in reverse before any merge (a parallel order).
    fn merge_tiles(
        tiles: &[TileCoord],
        logging: bool,
        interleaved: bool,
    ) -> (RbcdUnit, Vec<(u64, u64)>) {
        let config = RbcdConfig::default();
        let mut unit = RbcdUnit::new(config, 16).unwrap();
        unit.set_tile_logging(logging);
        let mut worker = ZebTileWorker::new(config, 16);
        let mut precomputed: Vec<TileCollisions> = Vec::new();
        if !interleaved {
            precomputed = tiles
                .iter()
                .rev()
                .map(|&t| ZebTileWorker::new(config, 16).process_tile(t, &tile_frags(t, 16)))
                .collect();
        }
        let (mut cursor, mut bounds) = (0u64, Vec::new());
        for &tile in tiles {
            let out = precomputed
                .pop()
                .unwrap_or_else(|| worker.process_tile(tile, &tile_frags(tile, 16)));
            let start = cursor.max(ParallelCollision::next_free(&unit));
            let end = start + 40;
            ParallelCollision::merge_tile(&mut unit, tile, out, start, end);
            bounds.push((start, end));
            cursor = end;
        }
        (unit, bounds)
    }

    /// Worker + ordered merge is independent of how the compute half
    /// was scheduled: the sequential and a parallel compute order agree
    /// to the bit on contacts (and order), stats, and timing state.
    #[test]
    fn worker_merge_matches_sequential_unit() {
        let tiles = [
            TileCoord { x: 0, y: 0 },
            TileCoord { x: 1, y: 0 },
            TileCoord { x: 3, y: 2 },
        ];
        let (seq, seq_bounds) = merge_tiles(&tiles, false, true);
        let (par, par_bounds) = merge_tiles(&tiles, false, false);
        assert!(!seq.contacts().is_empty(), "the tiles must collide to be meaningful");
        assert_eq!(seq.contacts(), par.contacts());
        assert_eq!(seq.stats(), par.stats());
        assert_eq!(ParallelCollision::next_free(&seq), ParallelCollision::next_free(&par));
        assert_eq!(ParallelCollision::idle_at(&seq), ParallelCollision::idle_at(&par));
        // And the dispatch bounds that drove both timelines agree.
        assert_eq!(seq_bounds, par_bounds);
    }

    /// With tile logging enabled, the sequential and parallel compute
    /// orders log identical per-tile records (same deltas, same timing
    /// brackets), and logging changes no result.
    #[test]
    fn tile_logs_match_between_sequential_and_merge() {
        let tiles = [TileCoord { x: 0, y: 0 }, TileCoord { x: 2, y: 1 }];
        let (mut seq, _) = merge_tiles(&tiles, true, true);
        let (mut par, _) = merge_tiles(&tiles, true, false);
        let (plain, _) = merge_tiles(&tiles, false, true);

        let seq_log = seq.take_tile_records();
        assert_eq!(seq_log.len(), tiles.len());
        assert_eq!(seq_log, par.take_tile_records());
        assert!(seq_log.iter().all(|r| r.insertions > 0 && r.scan_end > r.scan_start));
        // Drained: a second take is empty, stats untouched by logging.
        assert!(seq.take_tile_records().is_empty());
        assert_eq!(seq.stats(), plain.stats());
        assert_eq!(seq.contacts(), plain.contacts());
    }

    /// Replaying a cached tile accumulates the same contacts and event
    /// counters a merge would, but claims no ZEB and advances no timing
    /// state — the hardware never ran.
    #[test]
    fn replay_accumulates_results_without_touching_timing() {
        let config = RbcdConfig::default();
        let tile = TileCoord { x: 0, y: 0 };
        let mut worker = ZebTileWorker::new(config, 16);
        let out = worker.process_tile(tile, &tile_frags(tile, 16));

        let mut merged = RbcdUnit::new(config, 16).unwrap();
        ParallelCollision::merge_tile(&mut merged, tile, out.clone(), 0, 40);

        let mut replayed = RbcdUnit::new(config, 16).unwrap();
        replayed.set_tile_logging(true);
        ParallelCollision::replay_tile(&mut replayed, tile, out, 0, 40);

        assert_eq!(merged.contacts(), replayed.contacts());
        assert_eq!(merged.stats(), replayed.stats());
        assert!(ParallelCollision::idle_at(&merged) > 0, "merge occupies the scan unit");
        assert_eq!(ParallelCollision::idle_at(&replayed), 0, "replay must not");
        assert_eq!(ParallelCollision::next_free(&replayed), 0);
        let log = replayed.take_tile_records();
        assert_eq!(log.len(), 1, "replayed tiles still log for observability");
        assert!(log[0].scan_end > log[0].scan_start);
    }

    /// Two units with different configurations must never share cached
    /// tile results.
    #[test]
    fn coherence_key_tracks_the_whole_config() {
        let base = RbcdUnit::new(RbcdConfig::default(), 16).unwrap();
        let key = ParallelCollision::coherence_key(&base);
        assert_eq!(key, ParallelCollision::coherence_key(&base));
        for other in [
            RbcdConfig { zeb_count: 1, ..RbcdConfig::default() },
            RbcdConfig { list_capacity: 4, ..RbcdConfig::default() },
            RbcdConfig { spare_entries: 64, ..RbcdConfig::default() },
            RbcdConfig { ladder_rescans: 2, ..RbcdConfig::default() },
            RbcdConfig { ladder_cpu_fallback: true, ..RbcdConfig::default() },
            RbcdConfig { hot_path: rbcd_gpu::HotPathMode::Reference, ..RbcdConfig::default() },
        ] {
            let unit = RbcdUnit::new(other, 16).unwrap();
            assert_ne!(key, ParallelCollision::coherence_key(&unit), "{other:?}");
        }
    }

    /// A worker's ZEB is clean after every tile, so reuse across many
    /// tiles cannot leak state.
    #[test]
    fn worker_is_reusable_across_tiles() {
        let mut worker = ZebTileWorker::new(RbcdConfig::default(), 16);
        let tile = TileCoord { x: 0, y: 0 };
        let first = worker.process_tile(tile, &tile_frags(tile, 16));
        let second = worker.process_tile(tile, &tile_frags(tile, 16));
        assert_eq!(first.contacts, second.contacts);
        assert_eq!(first.stats, second.stats);
    }

    /// Workers must be shippable to threads.
    #[test]
    fn worker_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ZebTileWorker>();
        assert_send::<TileCollisions>();
    }
}

//! The attachment point for the RBCD unit (implemented in `rbcd-core`).
//!
//! Mirrors the paper's Figure 3: the Rasterizer forwards every
//! collisionable fragment to the unit, which stores it into a ZEB; when
//! a tile finishes rasterizing, the unit's Z-overlap scan runs while the
//! Raster Pipeline moves on — if a free ZEB exists. The Tile Scheduler
//! otherwise stalls (§3.5). The collision backend
//! ([`crate::ParallelCollision`]) replays that protocol in the merge
//! phase, in tile order: `next_free` is the dispatch gate the scheduler
//! waits on, `merge_tile` claims a ZEB and queues the tile's scan behind
//! the single Z-overlap unit, and `idle_at` ends the frame once the last
//! scan drains.

use crate::command::{Facing, ObjectId};

/// Tile coordinates in the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Tile column.
    pub x: u32,
    /// Tile row.
    pub y: u32,
}

/// A collisionable fragment as delivered by the rasterizer to the RBCD
/// unit: window position, depth, owning object, and face orientation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionFragment {
    /// Pixel x in window coordinates.
    pub x: u32,
    /// Pixel y in window coordinates.
    pub y: u32,
    /// Window depth in `[0, 1]`.
    pub z: f32,
    /// Owning collisionable object.
    pub object: ObjectId,
    /// Front (entry) or back (exit) face.
    pub facing: Facing,
}

/// The baseline GPU: no collision hardware. Every backend call is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCollisionUnit;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelCollision;

    #[test]
    fn null_unit_is_always_free() {
        let mut u = NullCollisionUnit;
        assert_eq!(u.next_free(), 0);
        let tile = TileCoord { x: 0, y: 0 };
        let frag =
            CollisionFragment { x: 0, y: 0, z: 0.5, object: ObjectId::new(1), facing: Facing::Front };
        NullCollisionUnit::process_tile(&mut (), tile, &[frag]);
        u.merge_tile(tile, (), 100, 200);
        assert_eq!(u.next_free(), 0);
        assert_eq!(u.idle_at(), 0);
    }
}

//! What a frame returns to its caller, and the exact reference every
//! timed frame is checked against.

use std::collections::BTreeSet;
use std::time::Instant;

use rbcd_core::{ContactPoint, ObjectPair, RbcdUnit};
use rbcd_gpu::{FramePolicy, FrameStats, GpuConfig, PipelineMode, SimulatorBuilder};
use rbcd_trace::CounterSet;

use crate::run::Stream;

/// The observable result of one frame: its pair set, the `rbcd.*`
/// counters it added, and, where the reference must match them too, its
/// frame statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOut {
    pub pairs: BTreeSet<ObjectPair>,
    pub rbcd: Vec<(&'static str, u64)>,
    pub stats: Option<FrameStats>,
}

impl FrameOut {
    /// `rbcd_delta` is the unit's counter set after the frame minus the
    /// one before it.
    pub fn new(
        contacts: &[ContactPoint],
        rbcd_delta: &CounterSet,
        stats: Option<FrameStats>,
    ) -> Self {
        Self {
            pairs: contacts.iter().map(ContactPoint::object_pair).collect(),
            rbcd: rbcd_delta
                .iter()
                .filter(|(k, _)| k.starts_with("rbcd."))
                .collect(),
            stats,
        }
    }

    /// FNV-1a over every field, so a timed frame can be kept as one
    /// word until the reference is rendered after the timed section.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(self.pairs.len() as u64);
        for p in &self.pairs {
            eat(((p.lo() as u64) << 32) | p.hi() as u64);
        }
        for &(_, v) in &self.rbcd {
            eat(v);
        }
        if let Some(stats) = &self.stats {
            for (_, v) in stats.counter_set().iter() {
                eat(v);
            }
        }
        h
    }
}

/// Counts of timed frames checked and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

/// Which exactness contract the reference enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Library-default `FramePolicy` (reuse off, full rebuild, broad
    /// phase off) at 1 worker: pairs and `rbcd.*` counters must match.
    /// Neither depends on the frames rendered before, so each clip frame
    /// is rendered once and every lap is checked against it.
    Solo,
    /// The session's own policy rendered alone through
    /// `render_frame_parallel` at 1 worker, over the exact frame
    /// sequence it saw in the batch: frame statistics must match too.
    Isolated,
}

/// Renders the reference for every stream and compares it with each
/// checked frame. `solo_us`, when given, receives per stream the host
/// time of every reference frame (`Isolated` only). `drop_one_pair`
/// removes one pair from the first checked reference frame that has
/// any, to show the comparison can fail.
pub fn check(
    streams: &[Stream],
    gpu: &GpuConfig,
    reference: Reference,
    drop_one_pair: bool,
    mut solo_us: Option<&mut Vec<Vec<f64>>>,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut dropped = !drop_one_pair;
    for s in streams {
        let policy = match reference {
            Reference::Solo => FramePolicy::default(),
            Reference::Isolated => s.policy.with_workers(1),
        };
        let mut sim = SimulatorBuilder::from_config(gpu.clone())
            .policy(policy)
            .build()
            .expect("the benchmark's GPU configuration is valid");
        let mut unit = RbcdUnit::new(s.rbcd, gpu.tile_size)
            .expect("the benchmark's RBCD configuration is valid");
        let (frames, index): (usize, &dyn Fn(usize) -> usize) = match reference {
            Reference::Solo => (s.clip.len().min(s.rendered), &|seq| seq % s.clip.len()),
            Reference::Isolated => (s.rendered, &|seq| seq),
        };
        let mut checked = vec![false; frames];
        for &(seq, _) in &s.outputs {
            checked[index(seq)] = true;
        }
        let mut before = unit.stats().counter_set();
        let mut digests = Vec::with_capacity(frames);
        let mut times = Vec::with_capacity(frames);
        for (seq, &is_checked) in checked.iter().enumerate() {
            let t = Instant::now();
            let faulted = s.faulted(seq);
            let trace = faulted.as_ref().map_or(s.trace(seq), |(f, _)| f);
            unit.new_frame();
            let stats = sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, 1);
            let contacts = unit.take_contacts();
            times.push(t.elapsed().as_secs_f64() * 1e6);
            let _ = unit.take_escalated();
            let _ = sim.take_governor_report();
            let after = unit.stats().counter_set();
            let keep_stats = (reference == Reference::Isolated).then_some(stats);
            let mut out = FrameOut::new(&contacts, &after.delta(&before), keep_stats);
            before = after;
            if !dropped && is_checked && !out.pairs.is_empty() {
                let first = *out.pairs.iter().next().expect("pair set is non-empty");
                out.pairs.remove(&first);
                dropped = true;
            }
            digests.push(out.digest());
        }
        for &(seq, digest) in &s.outputs {
            verdict.attempted += 1;
            if digest != Some(digests[index(seq)]) {
                verdict.failed += 1;
            }
        }
        if let Some(solo_us) = solo_us.as_deref_mut() {
            solo_us.push(times);
        }
    }
    verdict
}

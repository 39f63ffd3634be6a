//! The four workloads and the steady-state protocol they share: set
//! up, warm up, time, then check every timed frame.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rbcd_core::faults::FaultLog;
use rbcd_core::{ContactPoint, FaultPlan, RbcdConfig, RbcdStats, RbcdUnit};
use rbcd_gpu::energy::EnergyModel;
use rbcd_gpu::{
    render_batch, BatchJob, BroadPhase, FramePolicy, FrameStats, FrameTrace, FrontendMode,
    GeometryStats, GovernorConfig, GpuConfig, PipelineMode, Simulator, SimulatorBuilder,
};
use rbcd_trace::CounterSet;
use rbcd_workloads::Scene;

use crate::check::{self, FrameOut, Reference, Verdict};
use crate::host;

/// A named set of scenes and how they are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Dense,
    Static,
    Sparse,
    Batch,
}

/// In `batch`, the session that runs the `storm` fault plan.
const STORM_SCENE: &str = "sparse";
/// In `batch`, the session governed at half its own ungoverned cycles.
const GOVERNED_SCENE: &str = "cap";
/// The seed picks each clip's first scene frame below this.
const START_FRAMES: u64 = 8;

impl Workload {
    pub const ALL: [Workload; 4] = [Self::Dense, Self::Static, Self::Sparse, Self::Batch];

    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Static => "static",
            Self::Sparse => "sparse",
            Self::Batch => "batch",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scenes(self) -> Vec<Scene> {
        use rbcd_workloads as w;
        match self {
            Self::Dense => vec![w::cap(), w::crazy(), w::sleepy(), w::temple()],
            Self::Static => vec![w::vault(), w::atrium(), w::resting()],
            Self::Sparse => vec![w::sparse(), w::drift(), w::meadow()],
            Self::Batch => vec![
                w::cap(),
                w::crazy(),
                w::sleepy(),
                w::temple(),
                w::vault(),
                w::atrium(),
                w::sparse(),
                w::meadow(),
            ],
        }
    }

    fn reference(self) -> Reference {
        if self == Self::Batch {
            Reference::Isolated
        } else {
            Reference::Solo
        }
    }
}

/// The run protocol: everything but the workload and the seed.
#[derive(Debug, Clone)]
pub struct Protocol {
    pub gpu: GpuConfig,
    /// Worker threads per render call (solo) or for the shared pool
    /// (`batch`).
    pub workers: usize,
    /// Seconds the timed section lasts at least. It always ends on a
    /// whole lap of the clip, so every clip frame weighs the same in the
    /// percentiles whatever the host's speed.
    pub seconds: f64,
    /// Latency samples the timed section collects at least.
    pub min_samples: usize,
    /// Frames per clip. Long enough that a lap shows more distinct
    /// moving draws than the geometry cache holds, so looping the clip
    /// does not turn a moving draw into a cache hit.
    pub clip_frames: usize,
    /// Frames each stream renders inside every set-up: the cold start,
    /// where lazy initialisation shows. The rest of the first lap is
    /// rendered once, untimed, after the last set-up, so that every
    /// cache is full when timing starts.
    pub cold_frames: usize,
    /// Set-ups per run. `setup_s` is their median plus the time of the
    /// rest of the warm-up lap.
    pub setup_reps: usize,
}

impl Protocol {
    pub fn new(workload: Workload, seconds: f64) -> Self {
        Self {
            gpu: GpuConfig::default(),
            workers: if workload == Workload::Batch { 2 } else { 1 },
            seconds,
            min_samples: 100,
            clip_frames: 100,
            cold_frames: 8,
            setup_reps: 3,
        }
    }
}

/// The execution knobs `repro` uses by default.
fn cli_policy(workers: usize) -> FramePolicy {
    FramePolicy::new()
        .with_workers(workers)
        .with_reuse(true)
        .with_frontend(FrontendMode::Incremental)
        .with_broadphase(BroadPhase::On)
}

fn new_sim(gpu: &GpuConfig, policy: FramePolicy) -> Simulator {
    SimulatorBuilder::from_config(gpu.clone())
        .policy(policy)
        .build()
        .expect("the benchmark's GPU configuration is valid")
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `storm` fault plan, seeded from the run's seed.
fn storm(seed: u64) -> FaultPlan {
    FaultPlan::preset("storm", splitmix(seed ^ 0x5708)).expect("storm is a preset")
}

/// One simulator and unit looping a clip.
pub struct Stream {
    pub alias: &'static str,
    pub clip: Vec<FrameTrace>,
    pub policy: FramePolicy,
    pub rbcd: RbcdConfig,
    faults: Option<FaultPlan>,
    sim: Simulator,
    unit: RbcdUnit,
    /// A simulator with the same policy that only bins the same frames
    /// (traced runs), so geometry can be timed on its own.
    shadow: Option<Simulator>,
    /// Frames rendered so far; frame `n` shows `clip[n % clip.len()]`.
    pub rendered: usize,
    /// The unit's counters after the previous frame.
    rbcd_before: CounterSet,
    /// Every checked frame: its sequence number and output digest, or
    /// `None` when the call failed.
    pub outputs: Vec<(usize, Option<u64>)>,
    window: SimWindow,
    /// Frame statistics summed over the traced section.
    traced: FrameStats,
}

/// The first timed lap of a stream, over which the simulated metrics
/// are taken, so that they do not depend on how many laps fit the run.
#[derive(Default)]
struct SimWindow {
    frames: usize,
    stats: FrameStats,
    rbcd_start: RbcdStats,
    rbcd_end: Option<RbcdStats>,
}

impl Stream {
    fn new(
        alias: &'static str,
        clip: Vec<FrameTrace>,
        policy: FramePolicy,
        rbcd: RbcdConfig,
        faults: Option<FaultPlan>,
        gpu: &GpuConfig,
        traced: bool,
    ) -> Self {
        let unit = RbcdUnit::new(rbcd, gpu.tile_size)
            .expect("the benchmark's RBCD configuration is valid");
        Self {
            alias,
            clip,
            policy,
            rbcd,
            faults,
            sim: new_sim(gpu, policy),
            rbcd_before: unit.stats().counter_set(),
            unit,
            shadow: traced.then(|| new_sim(gpu, policy)),
            rendered: 0,
            outputs: Vec::new(),
            window: SimWindow::default(),
            traced: FrameStats::default(),
        }
    }

    /// The clean trace of frame `seq`.
    pub fn trace(&self, seq: usize) -> &FrameTrace {
        &self.clip[seq % self.clip.len()]
    }

    /// Frame `seq` with this stream's fault plan applied, if it has one.
    /// Faults are seeded by the clip position, so every lap repeats.
    pub fn faulted(&self, seq: usize) -> Option<(FrameTrace, FaultLog)> {
        self.faults
            .map(|p| p.apply(self.trace(seq), (seq % self.clip.len()) as u64))
    }
}

/// Whether the shadow's geometry did the same work as the rendered
/// frame's: every counter equal, except tile-cache store misses and the
/// cycles they add, which depend on the tile-cache state that only the
/// rendered simulator's raster loads also touch.
fn same_geometry_work(shadow: &GeometryStats, rendered: &GeometryStats) -> bool {
    let stores = |g: &GeometryStats| g.tile_cache_stores.accesses();
    let mut s = *shadow;
    s.tile_cache_stores = rendered.tile_cache_stores;
    s.cycles = rendered.cycles;
    s == *rendered && stores(shadow) == stores(rendered)
}

/// How a round's frames are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Untimed warm-up lap (part of set-up).
    Warmup,
    /// Timed and checked.
    Timed,
    /// Timed and checked, with the per-layer probes running between
    /// frames.
    Traced,
}

/// Per-layer sums over the traced section.
#[derive(Default)]
struct Layers {
    frames: u64,
    rounds: u64,
    round_us: f64,
    render_us: f64,
    drain_us: f64,
    drains: u64,
    geometry_us: f64,
    geometry_calls: u64,
    faults_us: f64,
    fault_calls: u64,
    stats: FrameStats,
    rbcd: CounterSet,
    /// Frames whose shadow geometry differed from the rendered frame's.
    shadow_mismatches: u64,
    /// Sequence numbers (equal to round numbers) of the traced rounds.
    seqs: std::ops::Range<usize>,
}

/// Latency samples of one timed section, in the order they were taken.
/// The section starts and ends on a lap boundary, so sample `i` and
/// sample `i + lap_samples` time the same clip frame(s).
struct Timing {
    samples_ms: Vec<f64>,
    lap_samples: usize,
    frames_per_lap: u64,
    lap_walls_s: Vec<f64>,
}

impl Timing {
    /// Per clip position, the fastest of its laps, sorted. Shared hosts
    /// switch between speed states for seconds at a time; the per-frame
    /// minimum measures the program at the host's best state, so runs
    /// agree with each other (see README.md).
    fn best_frames_ms(&self) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; self.lap_samples.min(self.samples_ms.len())];
        for (i, &ms) in self.samples_ms.iter().enumerate() {
            let b = &mut best[i % self.lap_samples];
            *b = b.min(ms);
        }
        sorted(&best)
    }

    /// Frames per second of the fastest lap.
    fn best_lap_fps(&self) -> f64 {
        let fastest = self
            .lap_walls_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        self.frames_per_lap as f64 / fastest
    }

    fn frames(&self) -> u64 {
        self.frames_per_lap * self.lap_walls_s.len() as u64
    }
}

struct Runner<'a> {
    proto: &'a Protocol,
    batch: bool,
    /// Fault plan applied off the frame path in solo traced runs, to
    /// time the fault layer on this workload's frames.
    shadow_faults: FaultPlan,
    layers: Layers,
}

impl Runner<'_> {
    /// Traced runs: bins `input` again on the stream's shadow simulator
    /// (timed, and checked against the rendered frame's geometry) and,
    /// in solo workloads, times the fault layer on it.
    fn probe(
        &mut self,
        shadow: &mut Option<Simulator>,
        input: &FrameTrace,
        stats: &FrameStats,
        phase: Phase,
        frame: u64,
    ) {
        if let Some(shadow) = shadow.as_mut() {
            let t = Instant::now();
            let geometry = shadow.bench_bin_frame(input, PipelineMode::Rbcd);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if !same_geometry_work(&geometry, &stats.geometry) {
                self.layers.shadow_mismatches += 1;
            }
            if phase == Phase::Traced {
                self.layers.geometry_us += us;
                self.layers.geometry_calls += 1;
            }
        }
        if phase == Phase::Traced && !self.batch {
            let t = Instant::now();
            std::hint::black_box(self.shadow_faults.apply(input, frame));
            self.layers.faults_us += t.elapsed().as_secs_f64() * 1e6;
            self.layers.fault_calls += 1;
        }
    }

    /// Bookkeeping after a stream's frame, outside the latency window:
    /// the output digest, the first-lap sums and the per-layer sums.
    fn record(
        &mut self,
        s: &mut Stream,
        phase: Phase,
        result: Option<(&FrameStats, &[ContactPoint])>,
    ) {
        let seq = s.rendered;
        s.rendered += 1;
        let Some((stats, contacts)) = result else {
            if phase != Phase::Warmup {
                s.outputs.push((seq, None));
            }
            return;
        };
        let _ = s.unit.take_escalated();
        let _ = s.sim.take_governor_report();
        let after = s.unit.stats().counter_set();
        let delta = after.delta(&s.rbcd_before);
        s.rbcd_before = after;
        if phase == Phase::Warmup {
            return;
        }
        let out = FrameOut::new(contacts, &delta, self.batch.then_some(*stats));
        s.outputs.push((seq, Some(out.digest())));
        let w = &mut s.window;
        if w.frames < s.clip.len() {
            w.frames += 1;
            w.stats.accumulate(stats);
            if w.frames == s.clip.len() {
                w.rbcd_end = Some(*s.unit.stats());
            }
        }
        if phase == Phase::Traced {
            s.traced.accumulate(stats);
            self.layers.frames += 1;
            self.layers.stats.accumulate(stats);
            self.layers.rbcd.accumulate(&delta);
        }
    }

    /// One frame of every stream, each rendered on its own; returns one
    /// latency sample per frame.
    fn solo_round(&mut self, streams: &mut [Stream], phase: Phase, samples: &mut Vec<f64>) -> f64 {
        let mut round_us = 0.0;
        for s in streams.iter_mut() {
            let k = s.rendered % s.clip.len();
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                s.unit.new_frame();
                let t = Instant::now();
                let stats = s.sim.render_frame_parallel(
                    &s.clip[k],
                    PipelineMode::Rbcd,
                    &mut s.unit,
                    self.proto.workers,
                );
                let render = t.elapsed();
                let t = Instant::now();
                let contacts = s.unit.take_contacts();
                (stats, contacts, render, t.elapsed())
            }));
            let frame = t0.elapsed();
            round_us += frame.as_secs_f64() * 1e6;
            samples.push(frame.as_secs_f64() * 1e3);
            match result {
                Ok((stats, contacts, render, drain)) => {
                    if phase == Phase::Traced {
                        self.layers.render_us += render.as_secs_f64() * 1e6;
                        self.layers.drain_us += drain.as_secs_f64() * 1e6;
                        self.layers.drains += 1;
                    }
                    self.probe(&mut s.shadow, &s.clip[k], &stats, phase, k as u64);
                    self.record(s, phase, Some((&stats, &contacts)));
                }
                Err(_) => self.record(s, phase, None),
            }
        }
        round_us
    }

    /// One `render_batch` call over every stream, fault injection and
    /// contact drain included; returns one latency sample per round.
    fn batch_round(&mut self, streams: &mut [Stream], phase: Phase, samples: &mut Vec<f64>) -> f64 {
        let t0 = Instant::now();
        let mut apply = (Duration::ZERO, 0u64);
        let faulted: Vec<Option<FrameTrace>> = streams
            .iter()
            .map(|s| {
                let t = Instant::now();
                let f = s.faulted(s.rendered).map(|(f, _)| f);
                if f.is_some() {
                    apply.0 += t.elapsed();
                    apply.1 += 1;
                }
                f
            })
            .collect();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut jobs: Vec<BatchJob<'_, RbcdUnit>> = streams
                .iter_mut()
                .zip(&faulted)
                .map(|(s, f)| {
                    s.unit.new_frame();
                    let Stream {
                        sim,
                        unit,
                        clip,
                        rendered,
                        ..
                    } = s;
                    let trace = f.as_ref().unwrap_or(&clip[*rendered % clip.len()]);
                    BatchJob {
                        sim,
                        backend: unit,
                        trace,
                        mode: PipelineMode::Rbcd,
                    }
                })
                .collect();
            render_batch(&mut jobs, self.proto.workers)
        }));
        let render = t.elapsed();
        let t = Instant::now();
        let contacts: Vec<Vec<ContactPoint>> =
            streams.iter_mut().map(|s| s.unit.take_contacts()).collect();
        let drain = t.elapsed();
        let round = t0.elapsed();
        samples.push(round.as_secs_f64() * 1e3);

        if phase == Phase::Traced {
            let l = &mut self.layers;
            l.render_us += render.as_secs_f64() * 1e6;
            l.drain_us += drain.as_secs_f64() * 1e6;
            l.drains += streams.len() as u64;
            l.faults_us += apply.0.as_secs_f64() * 1e6;
            l.fault_calls += apply.1;
        }
        let stats = match result {
            Ok(Ok(stats)) => Some(stats),
            _ => None,
        };
        for (j, s) in streams.iter_mut().enumerate() {
            let Some(stats) = &stats else {
                self.record(s, phase, None);
                continue;
            };
            let k = s.rendered % s.clip.len();
            let input = faulted[j].as_ref().unwrap_or(&s.clip[k]);
            self.probe(&mut s.shadow, input, &stats[j], phase, k as u64);
            self.record(s, phase, Some((&stats[j], &contacts[j])));
        }
        round.as_secs_f64() * 1e6
    }

    /// Runs whole laps until `seconds` have passed and at least
    /// `min_samples` latency samples exist, or exactly `rounds` rounds
    /// when given.
    fn section(
        &mut self,
        streams: &mut [Stream],
        phase: Phase,
        seconds: f64,
        rounds: Option<usize>,
    ) -> Timing {
        let lap = streams.first().map_or(1, |s| s.clip.len());
        let first_seq = streams.first().map_or(0, |s| s.rendered);
        let mut samples = Vec::new();
        let mut lap_walls_s = Vec::new();
        let mut done = 0usize;
        let mut lap_start = Instant::now();
        loop {
            let round_us = if self.batch {
                self.batch_round(streams, phase, &mut samples)
            } else {
                self.solo_round(streams, phase, &mut samples)
            };
            done += 1;
            if done.is_multiple_of(lap) {
                lap_walls_s.push(lap_start.elapsed().as_secs_f64());
                lap_start = Instant::now();
            }
            if phase == Phase::Traced {
                self.layers.rounds += 1;
                self.layers.round_us += round_us;
            }
            let finished = match rounds {
                Some(n) => done >= n,
                None => {
                    done.is_multiple_of(lap)
                        && samples.len() >= self.proto.min_samples
                        && lap_walls_s.iter().sum::<f64>() >= seconds
                }
            };
            if finished {
                break;
            }
        }
        if phase == Phase::Traced {
            self.layers.seqs = first_seq..first_seq + done;
        }
        Timing {
            samples_ms: samples,
            lap_samples: if self.batch { lap } else { lap * streams.len() },
            frames_per_lap: (lap * streams.len()) as u64,
            lap_walls_s,
        }
    }
}

/// Cycles per frame at which `clip` runs on a fresh ungoverned
/// simulator with `policy`: the governed session's budget is half of it.
fn ungoverned_cycles(
    clip: &[FrameTrace],
    gpu: &GpuConfig,
    policy: FramePolicy,
    rbcd: RbcdConfig,
) -> u64 {
    let mut sim = new_sim(gpu, policy);
    let mut unit =
        RbcdUnit::new(rbcd, gpu.tile_size).expect("the benchmark's RBCD configuration is valid");
    let mut total = FrameStats::default();
    for trace in clip {
        unit.new_frame();
        total.accumulate(&sim.render_frame_parallel(trace, PipelineMode::Rbcd, &mut unit, 1));
        let _ = unit.take_contacts();
    }
    total.total_cycles() / clip.len().max(1) as u64
}

/// Builds every stream of `workload` and renders its cold frames.
/// Returns the streams, the set-up seconds, and the host time of every
/// `Scene::frame_trace` call in microseconds.
fn setup(
    workload: Workload,
    proto: &Protocol,
    seed: u64,
    traced: bool,
    runner: &mut Runner<'_>,
) -> (Vec<Stream>, f64, Vec<f64>) {
    let start = Instant::now();
    let batch = workload == Workload::Batch;
    let mut trace_us = Vec::new();
    let mut streams = Vec::new();
    for (i, scene) in workload.scenes().iter().enumerate() {
        let first = (splitmix(seed ^ splitmix(i as u64)) % START_FRAMES) as usize;
        let clip: Vec<FrameTrace> = (first..first + proto.clip_frames)
            .map(|f| {
                let t = Instant::now();
                let trace = scene.frame_trace(f);
                trace_us.push(t.elapsed().as_secs_f64() * 1e6);
                trace
            })
            .collect();
        let mut policy = cli_policy(proto.workers);
        let mut rbcd = RbcdConfig {
            hot_path: proto.gpu.hot_path,
            ..RbcdConfig::default()
        };
        let mut faults = None;
        if batch {
            policy = policy.with_reuse(i % 2 == 0);
            if scene.alias == STORM_SCENE {
                let plan = storm(seed);
                rbcd = plan.apply_rbcd(rbcd);
                faults = Some(plan);
            }
            if scene.alias == GOVERNED_SCENE {
                let window = &clip[..proto.cold_frames.min(clip.len())];
                let budget = ungoverned_cycles(window, &proto.gpu, policy, rbcd) / 2;
                let gov = GovernorConfig {
                    frame_budget_cycles: budget.max(1),
                    ..GovernorConfig::default()
                };
                policy = policy.with_governor(Some(gov));
            }
        }
        streams.push(Stream::new(
            scene.alias,
            clip,
            policy,
            rbcd,
            faults,
            &proto.gpu,
            traced,
        ));
    }
    if batch {
        // Fisher–Yates: the seed picks the submission order.
        for i in (1..streams.len()).rev() {
            let j = (splitmix(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407))
                % (i as u64 + 1)) as usize;
            streams.swap(i, j);
        }
    }
    runner.section(&mut streams, Phase::Warmup, 0.0, Some(proto.cold_frames));
    (streams, start.elapsed().as_secs_f64(), trace_us)
}

/// How much of a stream's work each cache or filter removed.
#[derive(Debug, Clone)]
pub struct Shares {
    pub alias: &'static str,
    pub frames: u64,
    /// Tiles replayed from the tile result cache, of tiles checked.
    pub tile_reuse: f64,
    /// Draws replayed from the geometry cache, of draws.
    pub draw_hits: f64,
    /// Tiles the broad phase skipped, of tiles processed.
    pub bp_skip: f64,
}

impl Shares {
    fn of(alias: &'static str, st: &FrameStats) -> Self {
        let g = &st.geometry;
        Self {
            alias,
            frames: st.frames,
            tile_reuse: ratio(st.coherence.tiles_reused, st.coherence.tiles_checked),
            draw_hits: ratio(g.reuse_draws, g.reuse_draws + g.shaded_draws),
            bp_skip: ratio(st.broadphase.tiles_skipped, st.raster.tiles_processed),
        }
    }
}

/// One value of a report, with its unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub streams: Vec<&'static str>,
    pub warmup_frames: u64,
    pub timed_frames: u64,
    pub verdict: Verdict,
    /// Shadow-geometry frames that disagreed with the rendered frame.
    pub shadow_mismatches: u64,
    /// Traced runs: per stream, the mechanism shares over the traced
    /// section.
    pub shares: Vec<Shares>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs `workload` once. With `traced`, half of `proto.seconds` runs
/// with the per-layer probes and half without, and the report holds the
/// per-layer metrics; otherwise it holds the end-to-end metrics.
/// `drop_one_pair` corrupts the reference on purpose (see
/// [`check::check`]).
pub fn run(
    workload: Workload,
    proto: &Protocol,
    seed: u64,
    traced: bool,
    drop_one_pair: bool,
) -> Report {
    let batch = workload == Workload::Batch;
    let mut runner = Runner {
        proto,
        batch,
        shadow_faults: storm(seed),
        layers: Layers::default(),
    };
    let mut setup_s = Vec::new();
    let mut trace_us = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..proto.setup_reps.max(1) {
        drop(std::mem::take(&mut streams));
        runner.layers = Layers::default();
        let (s, secs, us) = setup(workload, proto, seed, traced, &mut runner);
        streams = s;
        setup_s.push(secs);
        trace_us.extend(us);
    }
    let fill = Instant::now();
    let rest = proto.clip_frames.saturating_sub(proto.cold_frames);
    runner.section(&mut streams, Phase::Warmup, 0.0, Some(rest));
    let setup_s = host::median(&setup_s) + fill.elapsed().as_secs_f64();
    for s in &mut streams {
        s.window.rbcd_start = *s.unit.stats();
    }
    let warmup_frames = streams.iter().map(|s| s.rendered as u64).sum();

    let (untraced, traced_timing) = if traced {
        let t = runner.section(&mut streams, Phase::Traced, proto.seconds / 2.0, None);
        for s in &mut streams {
            s.shadow = None;
        }
        let u = runner.section(&mut streams, Phase::Timed, proto.seconds / 2.0, None);
        (u, Some(t))
    } else {
        (
            runner.section(&mut streams, Phase::Timed, proto.seconds, None),
            None,
        )
    };

    let mut solo_us = Vec::new();
    let verdict = check::check(
        &streams,
        &proto.gpu,
        workload.reference(),
        drop_one_pair,
        (traced && batch).then_some(&mut solo_us),
    );
    let timed_frames = untraced.frames() + traced_timing.as_ref().map_or(0, |t| t.frames());
    let shadow_mismatches = runner.layers.shadow_mismatches;
    let metrics = match &traced_timing {
        None => end_to_end(&streams, &untraced, setup_s, proto.setup_reps, verdict),
        Some(t) => per_layer(&runner.layers, t, &untraced, &trace_us, &solo_us),
    };
    Report {
        streams: streams.iter().map(|s| s.alias).collect(),
        warmup_frames,
        timed_frames,
        verdict,
        shadow_mismatches,
        shares: if traced {
            streams
                .iter()
                .map(|s| Shares::of(s.alias, &s.traced))
                .collect()
        } else {
            Vec::new()
        },
        metrics,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn end_to_end(
    streams: &[Stream],
    timing: &Timing,
    setup_s: f64,
    setup_reps: usize,
    verdict: Verdict,
) -> Vec<Metric> {
    let energy = EnergyModel::default();
    let (mut cycles, mut joules, mut frames) = (0u64, 0.0f64, 0usize);
    for s in streams {
        let w = &s.window;
        let end = w.rbcd_end.expect("the timed section renders whole laps");
        let window_cycles = w.stats.total_cycles();
        cycles += window_cycles;
        frames += w.frames;
        joules += energy.gpu_energy(&w.stats).total_j() + end.dynamic_energy_j(&energy)
            - w.rbcd_start.dynamic_energy_j(&energy)
            + energy.rbcd_static_j(s.rbcd.zeb_count, s.rbcd.list_capacity, window_cycles);
    }
    let lat = timing.best_frames_ms();
    let n = lat.len() as u64;
    let window_frames = frames as u64;
    vec![
        metric("frame_ms_p50", host::percentile(&lat, 0.5), "ms", n),
        metric("frame_ms_p90", host::percentile(&lat, 0.9), "ms", n),
        metric(
            "frames_per_s",
            timing.best_lap_fps(),
            "1/s",
            timing.lap_walls_s.len() as u64,
        ),
        metric("setup_s", setup_s, "s", setup_reps as u64),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB", 1),
        metric(
            "sim_cycles_per_frame",
            cycles as f64 / frames as f64,
            "cycles",
            window_frames,
        ),
        metric(
            "sim_energy_uj_per_frame",
            joules * 1e6 / frames as f64,
            "uJ",
            window_frames,
        ),
        metric(
            "error_rate",
            ratio(verdict.failed, verdict.attempted),
            "fraction",
            verdict.attempted,
        ),
    ]
}

fn per_layer(
    l: &Layers,
    traced: &Timing,
    untraced: &Timing,
    trace_us: &[f64],
    solo_us: &[Vec<f64>],
) -> Vec<Metric> {
    let mut counters = l.stats.counter_set();
    counters.accumulate(&l.rbcd);
    let fr = l.frames;
    let c = |key: &str| counters.get(key);
    let count = |name: &'static str, unit: &'static str| {
        metric(name, c(name) as f64 / fr.max(1) as f64, unit, fr)
    };
    let share =
        |name: &'static str, num: &str, den: u64| metric(name, ratio(c(num), den), "fraction", fr);
    let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
    let geometry_us = mean(l.geometry_us, l.geometry_calls);
    // Batch only: the traced rounds against the same sessions' frames
    // rendered alone (the reference pass), frame by frame.
    let solo_sum: f64 = solo_us
        .iter()
        .map(|t| t[l.seqs.clone()].iter().sum::<f64>())
        .sum();
    let overhead_pct = if solo_sum > 0.0 {
        (l.round_us - solo_sum) / solo_sum * 100.0
    } else {
        0.0
    };
    let traced_p50 = host::percentile(&traced.best_frames_ms(), 0.5);
    let untraced_p50 = host::percentile(&untraced.best_frames_ms(), 0.5);
    let draws = c("geom.reuse_draws") + c("geom.shaded_draws");
    let trace_calls = trace_us.len() as u64;
    vec![
        metric(
            "workloads.frame_trace_us",
            mean(trace_us.iter().sum(), trace_calls),
            "us",
            trace_calls,
        ),
        metric("geometry.host_us", geometry_us, "us", l.geometry_calls),
        share("geometry.draw_hit_ratio", "geom.reuse_draws", draws),
        share(
            "geometry.vertex_cache_miss_ratio",
            "geometry.vertex_cache_misses",
            c("geometry.vertex_cache_accesses"),
        ),
        count("geometry.bin_entries", "count"),
        count("geometry.cycles", "cycles"),
        metric(
            "raster.host_us",
            mean(l.render_us, fr) - geometry_us,
            "us",
            fr,
        ),
        share(
            "coherence.reuse_ratio",
            "coherence.tiles_reused",
            c("coherence.tiles_checked"),
        ),
        count("coherence.signature_cycles", "cycles"),
        share(
            "broadphase.skip_ratio",
            "broadphase.tiles_skipped",
            c("raster.tiles_processed"),
        ),
        count("broadphase.objects_swept", "count"),
        count("broadphase.sweep_cycles", "cycles"),
        count("raster.fragments_rasterized", "count"),
        count("raster.rows_full", "count"),
        count("tile.scan_skipped", "count"),
        share(
            "raster.tile_cache_load_miss_ratio",
            "raster.tile_cache_load_misses",
            c("raster.tile_cache_load_accesses"),
        ),
        count("raster.cycles", "cycles"),
        count("raster.zeb_stall_cycles", "cycles"),
        metric("unit.drain_us", mean(l.drain_us, l.drains), "us", l.drains),
        count("rbcd.insertions", "count"),
        count("rbcd.lists_scanned", "count"),
        count("rbcd.overflows", "count"),
        count("rbcd.pairs_emitted", "count"),
        count("rbcd.rung_cpu", "count"),
        count("rbcd.insert_cycles", "cycles"),
        count("rbcd.scan_cycles", "cycles"),
        metric(
            "faults.apply_us",
            mean(l.faults_us, l.fault_calls),
            "us",
            l.fault_calls,
        ),
        count("governor.tiles_shed", "count"),
        count("governor.tiles_coarsened", "count"),
        count("governor.stale_pairs", "count"),
        metric(
            "service.round_us",
            mean(l.round_us, l.rounds),
            "us",
            l.rounds,
        ),
        metric("service.overhead_pct", overhead_pct, "%", l.rounds),
        metric(
            "tracing.frame_ms_p50",
            traced_p50,
            "ms",
            traced.samples_ms.len() as u64,
        ),
        metric(
            "tracing.overhead_ms",
            traced_p50 - untraced_p50,
            "ms",
            untraced.samples_ms.len() as u64,
        ),
    ]
}

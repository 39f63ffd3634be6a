//! The benchmark's own checks, on a small viewport and short clips so
//! they run in seconds: every workload is exact, the simulated metrics
//! repeat exactly, and the reference comparison can fail.

use rbcd_gpu::GpuConfig;
use rbcd_math::Viewport;

use crate::run::{run, Protocol, Report, Workload};

fn quick(workers: usize) -> Protocol {
    Protocol {
        gpu: GpuConfig {
            viewport: Viewport::new(160, 96),
            ..GpuConfig::default()
        },
        workers,
        seconds: 0.0,
        min_samples: 4,
        clip_frames: 6,
        cold_frames: 2,
        setup_reps: 1,
    }
}

fn untraced(workload: Workload, workers: usize, seed: u64) -> Report {
    run(workload, &quick(workers), seed, false, false)
}

fn get(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

const SIM: [&str; 2] = ["sim_cycles_per_frame", "sim_energy_uj_per_frame"];

#[test]
fn every_workload_is_exact() {
    for w in Workload::ALL {
        let r = untraced(w, 1, 7);
        assert!(r.verdict.attempted > 0, "{}", w.name());
        assert_eq!(r.verdict.failed, 0, "{}", w.name());
        assert_eq!(get(&r, "error_rate"), 0.0, "{}", w.name());
    }
}

#[test]
fn simulated_metrics_repeat_across_runs_and_worker_counts() {
    for w in Workload::ALL {
        let a = untraced(w, 1, 3);
        let b = untraced(w, 1, 3);
        let c = untraced(w, 2, 3);
        for m in SIM {
            assert!(get(&a, m) > 0.0, "{} {m}", w.name());
            assert_eq!(
                get(&a, m).to_bits(),
                get(&b, m).to_bits(),
                "{} {m} across runs",
                w.name()
            );
            assert_eq!(
                get(&a, m).to_bits(),
                get(&c, m).to_bits(),
                "{} {m} across workers",
                w.name()
            );
        }
    }
}

#[test]
fn a_reference_missing_one_pair_fails_a_frame() {
    for w in [Workload::Dense, Workload::Batch] {
        let r = run(w, &quick(1), 5, false, true);
        assert!(
            r.verdict.failed > 0,
            "{}: the corrupted reference went unnoticed",
            w.name()
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_pass_the_shadow_check() {
    for w in Workload::ALL {
        let r = run(w, &quick(1), 11, true, false);
        assert_eq!(r.verdict.failed, 0, "{}", w.name());
        assert_eq!(r.shadow_mismatches, 0, "{}", w.name());
        assert!(r.metrics.len() > 30, "{}", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite(), "{} {}", w.name(), m.name);
        }
    }
}

#[test]
fn seeds_pick_the_inputs() {
    let a = untraced(Workload::Batch, 1, 1);
    let b = untraced(Workload::Batch, 1, 1);
    assert_eq!(a.streams, b.streams);
    let orders: std::collections::BTreeSet<Vec<&str>> = (0..6)
        .map(|s| untraced(Workload::Batch, 1, s).streams)
        .collect();
    assert!(
        orders.len() > 1,
        "the seed must change the batch session order"
    );
}

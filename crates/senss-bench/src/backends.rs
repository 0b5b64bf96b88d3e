//! Shared machinery for the cross-backend comparison figure
//! (`figure_backends`): the sweep grid, the deterministic JSONL table
//! and the human-readable rendering.
//!
//! The figure puts the paper's SENSS design and the three
//! `senss-backends` alternatives (SERVAS authenticryption, Sealer
//! in-SRAM AES, secret-sharing scattered memory) on one axis, as
//! overhead vs the insecure baseline across workloads × 4/8/16
//! processors. Everything runs as ordinary cached, servable
//! [`SweepSpec`] jobs, so the same grid executes locally, against a
//! `senss-serve` cluster (`SENSS_SERVE`), or warm-started from forked
//! checkpoints (`HARNESS_WARM_START=1`) — byte-identically.
//!
//! Each (workload, cores, mode) cell runs at **three scale points**
//! (half, three-quarter and full ops). The extra points serve two
//! masters: the figure gets a cheap scaling sanity column, and the
//! warm-start executor gets fork groups with ≥3 members so
//! snapshot-forked execution is genuinely exercised rather than
//! degenerating to all-cold runs.

use crate::overhead;
use crate::sweeps::{JobSpec, SecurityMode, SweepResult, SweepSpec};
use senss_workloads::Workload;

/// Processor counts of the cross-backend figure.
pub const CORES: [usize; 3] = [4, 8, 16];

/// L2 capacity: the paper's 1 MB write-back L2.
pub const L2: usize = 1 << 20;

/// The competing modes, baseline first. Labels are the stable column
/// names of the figure (the JSONL carries the full mode tag as well).
pub fn modes() -> Vec<(&'static str, SecurityMode)> {
    vec![
        ("baseline", SecurityMode::Baseline),
        ("senss", SecurityMode::senss()),
        ("servas", SecurityMode::servas()),
        ("sealer", SecurityMode::sealer()),
        ("scattered", SecurityMode::scattered()),
    ]
}

/// The workloads of the full figure (all five paper workloads) or the
/// CI smoke slice.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    if smoke {
        vec![Workload::Fft, Workload::Radix, Workload::Ocean]
    } else {
        Workload::all().to_vec()
    }
}

/// The three scale points of one cell: half, three-quarter and full
/// ops. Strictly increasing for `ops ≥ 4`, which makes each
/// (workload, cores, mode) cell a warm-start fork group of three.
pub fn scale_points(ops: usize) -> [usize; 3] {
    assert!(ops >= 4, "need at least 4 ops for distinct scale points");
    [ops / 2, ops * 3 / 4, ops]
}

/// The full cross-backend sweep: `modes × cores × workloads` at each
/// scale point, as one servable spec.
pub fn sweep(workloads: &[Workload], ops: usize, seed: u64) -> SweepSpec {
    let mode_list: Vec<SecurityMode> = modes().iter().map(|&(_, m)| m).collect();
    let mut sweep = SweepSpec::new("backends");
    for scale in scale_points(ops) {
        sweep.grid(workloads, &CORES, &[L2], &mode_list, scale, seed);
    }
    sweep
}

/// One row of the deterministic JSONL table.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCell {
    /// Stable mode label (`senss`, `servas`, ...).
    pub label: &'static str,
    /// Full mode tag (`servas:m8`, ...).
    pub tag: String,
    /// Workload name.
    pub workload: &'static str,
    /// Processor count.
    pub cores: usize,
    /// Scale point (ops per core).
    pub scale: usize,
    /// Slowdown vs the baseline job of the same shape and scale (%).
    pub slowdown_pct: f64,
    /// Bus-traffic increase vs that baseline (%).
    pub traffic_pct: f64,
}

impl BackendCell {
    /// The canonical JSONL rendering. Floats are fixed to six decimals
    /// so the line is a deterministic function of the stats (the
    /// harness JSON model is integer-only by design — these lines are
    /// rendered by hand instead of widening it).
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"figure\":\"backends\",\"workload\":\"{}\",\"cores\":{},\"scale\":{},\
             \"mode\":\"{}\",\"label\":\"{}\",\"slowdown_pct\":{:.6},\"traffic_pct\":{:.6}}}",
            self.workload,
            self.cores,
            self.scale,
            self.tag,
            self.label,
            self.slowdown_pct,
            self.traffic_pct
        )
    }
}

/// Extracts the full table from an executed sweep: one cell per
/// (secured mode × workload × cores × scale), in that deterministic
/// order.
///
/// # Panics
///
/// Panics if the result is missing any job of [`sweep`]'s grid (the
/// `ops`/`seed` arguments must match the ones the sweep was built with).
pub fn cells(
    result: &SweepResult,
    workloads: &[Workload],
    ops: usize,
    seed: u64,
) -> Vec<BackendCell> {
    let mut out = Vec::new();
    for (label, mode) in modes().into_iter().skip(1) {
        for &w in workloads {
            for &cores in &CORES {
                for scale in scale_points(ops) {
                    let shape = JobSpec::new(w, cores, L2).with_ops(scale).with_seed(seed);
                    let base = result.require(&shape);
                    let secured = result.require(&shape.with_mode(mode));
                    let o = overhead(secured, base);
                    out.push(BackendCell {
                        label,
                        tag: mode.tag(),
                        workload: w.name(),
                        cores,
                        scale,
                        slowdown_pct: o.slowdown_pct,
                        traffic_pct: o.traffic_pct,
                    });
                }
            }
        }
    }
    out
}

/// The JSONL table: one line per cell, newline-terminated.
pub fn jsonl_table(cells: &[BackendCell]) -> String {
    let mut out = String::new();
    for c in cells {
        out.push_str(&c.jsonl());
        out.push('\n');
    }
    out
}

/// The human-readable table: per processor count, one row per backend
/// with the full-scale slowdown per workload.
pub fn human_table(cells: &[BackendCell], workloads: &[Workload], ops: usize) -> String {
    let full = scale_points(ops)[2];
    let mut out = String::new();
    for &cores in &CORES {
        out.push_str(&format!(
            "-- {cores}P: % slowdown vs baseline (ops={full}) --\n"
        ));
        out.push_str(&format!("{:<12}", "backend"));
        for w in workloads {
            out.push_str(&format!("{:>9}", w.name()));
        }
        out.push_str(&format!("{:>9}\n", "average"));
        for (label, _) in modes().into_iter().skip(1) {
            let mut row = Vec::new();
            for w in workloads {
                let cell = cells
                    .iter()
                    .find(|c| {
                        c.label == label
                            && c.workload == w.name()
                            && c.cores == cores
                            && c.scale == full
                    })
                    .expect("cell for every grid point");
                row.push(cell.slowdown_pct);
            }
            out.push_str(&format!("{label:<12}"));
            for v in &row {
                out.push_str(&format!("{v:>9.3}"));
            }
            let avg = row.iter().sum::<f64>() / row.len() as f64;
            out.push_str(&format!("{avg:>9.3}\n"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_mode_and_shape() {
        let ws = workloads(true);
        let s = sweep(&ws, 100, 1);
        // 5 modes × 3 cores × 3 workloads × 3 scales.
        assert_eq!(s.len(), 5 * 3 * 3 * 3);
        // Every cell is a fork group of three (same spec, ops differ).
        let scales = scale_points(100);
        assert_eq!(scales, [50, 75, 100]);
        let first = &s.jobs[0];
        let group: Vec<_> = s
            .jobs
            .iter()
            .filter(|j| j.trace == first.trace && j.cores == first.cores && j.mode == first.mode)
            .collect();
        assert_eq!(group.len(), 3);
    }

    #[test]
    fn jsonl_lines_are_stable() {
        let cell = BackendCell {
            label: "servas",
            tag: "servas:m8".to_string(),
            workload: "fft",
            cores: 4,
            scale: 450,
            slowdown_pct: 0.1234567,
            traffic_pct: -0.2,
        };
        assert_eq!(
            cell.jsonl(),
            "{\"figure\":\"backends\",\"workload\":\"fft\",\"cores\":4,\"scale\":450,\
             \"mode\":\"servas:m8\",\"label\":\"servas\",\"slowdown_pct\":0.123457,\
             \"traffic_pct\":-0.200000}"
        );
    }
}

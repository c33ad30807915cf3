//! Whole-workload benchmark of the gossip streaming simulator.
//!
//! Three named workloads drive the simulator end to end through its public
//! entry points only:
//!
//! * `switch_churn` — one 10,000-peer channel in the paper's dynamic
//!   environment (5 %/s leave and join, `M = 5`), `FastSwitchScheduler`, a
//!   source switch every 60 periods, period-lockstep stepping;
//! * `zapping_flash` — a `SessionManager` with 8 channels × 1,000 viewers,
//!   pipelined stepping, Zipf(1.2) zapping at 2 % of viewers per period, two
//!   250-viewer flash crowds, rate-limited admission (64 per boundary) and
//!   per-channel churn;
//! * `lossy_event` — 5,000 peers on the event-driven network (trace
//!   latencies, 2 % loss, 10 ms jitter), 5 %/s churn, a switch every 60
//!   periods.
//!
//! Each workload is a closed loop: one driver thread starts the next period
//! only after the previous one returned.  One invocation builds the workload
//! `reps` times from the same seed (the set-up time is the median of those
//! builds) and measures a fixed number of periods after each build.  Every
//! simulated figure must come out identical across the builds; the host
//! figures (wall times, throughput, resident memory) pool the samples of
//! all of them.
//!
//! The measured window is a fixed amount of simulated work: `--seconds`
//! sizes it through each workload's nominal period rate (see
//! [`Workload::nominal_periods_per_s`]) instead of a wall-clock timer, so a
//! faster program runs the same periods in less time and every simulated
//! figure stays comparable across commits.

pub mod metrics;
pub mod session;
pub mod single;
pub mod tracer;

use std::time::Instant;
use tracer::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One large churned channel with periodic source switches.
    SwitchChurn,
    /// Many channels with zapping, flash crowds and rate-limited admission.
    ZappingFlash,
    /// A churned channel with periodic switches on a lossy, delayed network.
    LossyEvent,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SwitchChurn,
        Workload::ZappingFlash,
        Workload::LossyEvent,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SwitchChurn => "switch_churn",
            Workload::ZappingFlash => "zapping_flash",
            Workload::LossyEvent => "lossy_event",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Periods per second the workload ran at on the reference host (2
    /// vCPUs, pool of 2).  Only sizes the measured window from `--seconds`;
    /// it is a constant, never measured at run time.
    pub fn nominal_periods_per_s(self) -> f64 {
        match self {
            Workload::SwitchChurn => 24.0,
            Workload::ZappingFlash => 40.0,
            Workload::LossyEvent => 24.0,
        }
    }
}

/// Periods between two source switches on the switch workloads.
pub const SWITCH_EVERY: u64 = 60;

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input (traces, overlays, churn, zaps, faults).
    pub seed: u64,
    /// Sizes the measured window (see the crate docs).
    pub seconds: f64,
    /// Records spans and per-period counters for the per-layer metrics.
    pub trace: bool,
    /// Total workers of the `WorkerPool` (the driver thread counts as one).
    pub workers: usize,
    /// Builds (and measured windows) per invocation.
    pub reps: usize,
    /// Multiplies every population size; 1.0 is the stated workload.
    pub scale: f64,
}

impl Params {
    /// The stated workload with the benchmark's defaults.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            workload,
            seed,
            seconds,
            trace,
            workers: 2,
            reps: 6,
            scale: 1.0,
        }
    }

    /// `base` scaled by `self.scale`, at least `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }

    /// Measured periods after each build: the window `seconds` buys at the
    /// nominal rate, split over the builds and rounded to whole switch
    /// cycles where the workload switches.
    pub fn periods_per_rep(&self) -> u64 {
        let total = self.seconds * self.workload.nominal_periods_per_s();
        let per_rep = total / self.reps.max(1) as f64;
        match self.workload {
            Workload::ZappingFlash => (per_rep.round() as u64).max(40),
            _ => ((per_rep / SWITCH_EVERY as f64).round() as u64).max(1) * SWITCH_EVERY,
        }
    }
}

/// The simulated end-to-end figures of one build's measured window.  They
/// are a pure function of the seed and the workload size, so two builds of
/// one invocation must agree exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Warm-up periods the steady-state rule needed.
    pub warmup_periods: u64,
    /// Measured periods.
    pub periods: u64,
    /// Σ active peers over the measured periods.
    pub peer_periods: u64,
    /// Protocol-state bytes per active peer at the end of the window.
    pub state_bytes_per_peer: f64,
    /// Mean time from handover to playback of the new stream.
    pub switch_time_s: f64,
    /// 95th percentile of the same per-listener times.
    pub zap_latency_p95_s: f64,
    /// Played ÷ play opportunities.
    pub continuity: f64,
    /// Control bits ÷ (control + data) bits over the window.
    pub control_overhead: f64,
    /// Listener switches (switch workloads) or zap arrivals (sessions).
    pub ops: u64,
    /// Ops whose listener was not playing the new stream in time.
    pub ops_failed: u64,
}

impl SimFigures {
    /// `ops_failed / ops`.
    pub fn failed_share(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ops_failed as f64 / self.ops as f64
        }
    }

    /// Bitwise equality (floats compared by their bits).
    pub fn identical(&self, other: &SimFigures) -> bool {
        let bits = |s: &SimFigures| {
            [
                s.warmup_periods,
                s.periods,
                s.peer_periods,
                s.state_bytes_per_peer.to_bits(),
                s.switch_time_s.to_bits(),
                s.zap_latency_p95_s.to_bits(),
                s.continuity.to_bits(),
                s.control_overhead.to_bits(),
                s.ops,
                s.ops_failed,
            ]
        };
        bits(self) == bits(other)
    }
}

/// What one build plus its measured window produced.
#[derive(Debug, Clone)]
pub struct RepResult {
    /// Set-up wall time: trace, overlay, system/session and warm-up.
    pub setup_ns: u64,
    /// Wall time of every measured period.
    pub period_ns: Vec<u64>,
    /// Wall time of the whole measured window (periods plus the handovers
    /// and harvests between them).
    pub window_ns: u64,
    /// Machine-wide `(steal, total)` CPU jiffies spent during the window.
    pub window_jiffies: (u64, u64),
    /// The simulated figures.
    pub sim: SimFigures,
    /// Per-layer figures (`name`, value); empty unless traced.  Names not
    /// listed read as 0 — the layer is bypassed on this workload.
    pub layer: Vec<(&'static str, f64)>,
    /// One-line descriptions of what the window simulated (per handover or
    /// per session), printed for the first build.
    pub notes: Vec<String>,
    /// Output checks that failed, each a one-line description.
    pub check_failures: Vec<String>,
}

/// Builds the workload and measures one window.
pub fn run_rep(
    params: &Params,
    pool: &std::sync::Arc<fss_runtime::WorkerPool>,
    tracer: &mut Tracer,
) -> RepResult {
    match params.workload {
        Workload::ZappingFlash => session::run(params, pool, tracer),
        _ => single::run(params, pool, tracer),
    }
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The machine-wide `(steal, total)` CPU time in jiffies from `/proc/stat`
/// (`(0, 0)` where unavailable).  Steal is time the hypervisor ran other
/// guests while this one's vCPUs wanted to run; it inflates wall times.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Deterministic 64-bit mix (splitmix64), used to derive per-purpose seeds
/// and the benchmark's own choices (which peer becomes the next source).
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Rolling steady-state test for warm-up: protocol-state bytes per active
/// peer must stop growing before the measured window may start.
///
/// No buffer ring can be full before the buffer span `B / (p·τ)` periods
/// have streamed, so the rule looks no earlier than that.  From then on it
/// compares the maxima of consecutive 20-period blocks and declares the
/// state steady once a block's maximum exceeds the previous block's by at
/// most 1 %.  A workload whose state still grows after `MAX_BLOCKS` blocks
/// fails the run.
pub struct SteadyState {
    min_periods: u64,
    periods: u64,
    block_max: f64,
    prev_block_max: Option<f64>,
    blocks: u32,
}

impl SteadyState {
    const BLOCK: u64 = 20;
    const TOLERANCE: f64 = 0.01;
    /// Blocks after the buffer span before growth counts as unbounded.
    pub const MAX_BLOCKS: u32 = 20;

    /// A rule for a protocol whose buffer span is `min_periods` periods.
    pub fn new(min_periods: u64) -> SteadyState {
        SteadyState {
            min_periods,
            periods: 0,
            block_max: 0.0,
            prev_block_max: None,
            blocks: 0,
        }
    }

    /// Feeds the bytes per active peer after one more warm-up period.
    /// Returns `Some(true)` once steady, `Some(false)` when the state is
    /// still growing after the last allowed block, `None` to continue.
    pub fn observe(&mut self, bytes_per_peer: f64) -> Option<bool> {
        self.periods += 1;
        if self.periods <= self.min_periods {
            return None;
        }
        self.block_max = self.block_max.max(bytes_per_peer);
        if !(self.periods - self.min_periods).is_multiple_of(Self::BLOCK) {
            return None;
        }
        let current = std::mem::take(&mut self.block_max);
        self.blocks += 1;
        if let Some(prev) = self.prev_block_max.replace(current) {
            if current <= prev * (1.0 + Self::TOLERANCE) {
                return Some(true);
            }
        }
        (self.blocks >= Self::MAX_BLOCKS).then_some(false)
    }

    /// Warm-up periods observed so far.
    pub fn periods(&self) -> u64 {
        self.periods
    }
}

/// Quantile of a sorted sample by linear interpolation between the two
/// closest ranks (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The nearest-rank quantile `round((n − 1)·q)` the simulator's own
/// summaries use, for the simulated latency percentiles.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}
